"""Entry point of ``python -m tpcsim``: the same command line as ``tpcsim``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
