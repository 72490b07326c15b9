"""python -m fanocalc: the fanocalc command line."""

from .cli import main

if __name__ == "__main__":
    main()
