"""`python -m semipositone`: the `solve` command line."""

from .sweep_cli import main

if __name__ == "__main__":
    raise SystemExit(main())
