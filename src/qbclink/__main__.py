"""``python -m qbclink``: the ``qbclink`` command."""

from .cli import entry

if __name__ == "__main__":
    entry()
