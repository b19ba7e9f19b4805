"""`python -m galehull`: the same command line as the `galehull` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
