"""``python -m regar``: the command-line interface."""
from .cli import main
main()
