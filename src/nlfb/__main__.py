"""python -m nlfb: the command-line interface of nlfb.cli."""
from .cli import main

main()
