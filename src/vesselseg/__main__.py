"""python -m vesselseg: the same CLI as the installed vesselseg script."""

from .cli import main

if __name__ == "__main__":
    main()
