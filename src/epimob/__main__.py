"""`python -m epimob ...` runs the epimob command line."""

from .cli import main

main()
