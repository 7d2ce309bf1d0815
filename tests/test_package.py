"""The installed package: every data file is shipped."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_data_file_matches_a_package_data_glob():
    import tomllib

    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["large_atlas"]
    package = ROOT / "src" / "large_atlas"
    shipped = {path for pattern in globs for path in package.glob(pattern)}
    data = [path for path in (package / "data").rglob("*") if path.is_file()]
    assert data and [path for path in data if path not in shipped] == []
