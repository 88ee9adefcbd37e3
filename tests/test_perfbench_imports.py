"""Imports that ``src/pagelayout`` keeps only so that a site of the
benchmark's traced run (``perfbench/layers.py`` ``SITES``) still resolves.

Each such import stands on its own line, marked ``# noqa: F401`` with the
site it serves.  These tests tie every mark to a live site, and the module
to no other use of the name, so the import goes away with its site.  They
only read ``perfbench``.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from layers import SITES  # noqa: E402

MARK = re.compile(r"^from \.\w+ import (\w+)  # noqa: F401  \(perfbench's traced run wraps (\w+)\.(\w+)\)$")


def kept_imports():
    """(module stem, imported name, site module, site attribute, source) for each marked import."""
    for path in sorted((ROOT / "src" / "pagelayout").glob("*.py")):
        source = path.read_text()
        for line in source.splitlines():
            if "perfbench" in line and line.startswith("from "):
                match = MARK.match(line)
                assert match, f"{path.name}: unrecognized perfbench mark: {line}"
                yield (path.stem, *match.groups(), source)


def test_each_kept_import_names_a_site():
    names = {site.name for site, _ in SITES}
    kept = list(kept_imports())
    assert kept
    for stem, name, site_module, site_attr, _ in kept:
        assert (site_module, site_attr) == (stem, name), f"{stem}.py keeps {name} for {site_module}.{site_attr}"
        assert f"{stem}.{name}" in names, f"{stem}.{name} is no site of perfbench/layers.py"


def test_each_kept_import_is_otherwise_unused():
    for stem, name, _, _, source in kept_imports():
        assert len(re.findall(rf"\b{name}\b", source)) == 2, f"{stem}.py uses {name} beyond the kept import"
