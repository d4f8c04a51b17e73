"""Access to the bundled example corpus (JSON input files)."""

from __future__ import annotations

from importlib import resources


def corpus_path(name: str) -> str:
    """Filesystem path of a bundled corpus file, e.g. 'example1.json'."""
    ref = resources.files("flexcert") / "corpus" / name
    if not ref.is_file():
        raise FileNotFoundError(f"no corpus file named {name!r}")
    return str(ref)
