"""`python -m opmeans <subcommand> ...`, the `opmeans` command without an install."""
from .cli import main

if __name__ == "__main__":
    main()
