"""``python -m e2el``: the command-line interface of `e2el.cli`."""

from .cli import main

main()
