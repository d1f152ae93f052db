"""Fixture: a bare ignore directive (no rule list) is itself an error, and
so is a waiver whose rule ran on its line and found nothing there."""


def helper() -> int:
    return 1  # audit: ignore


def stale() -> int:
    return helper()  # audit: ignore[AUD105]
