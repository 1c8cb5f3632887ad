"""``tomli`` for Python 3.10, which has no ``tomllib``: the copy that 3.10's
own pip vendors, re-exported for pytest's reading of pyproject.toml."""

from pip._vendor.tomli import TOMLDecodeError, load, loads  # noqa: F401
