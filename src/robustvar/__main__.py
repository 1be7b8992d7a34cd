"""``python -m robustvar``: the ``robustvar`` command without an install."""

from .cli import main

main()
