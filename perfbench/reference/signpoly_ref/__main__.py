"""Allow ``python -m signpoly``."""

from .cli import run

run()
