"""Crash-and-recover verification for the durable tiers (see driver)."""
