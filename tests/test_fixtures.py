"""The committed fixture corpus is exactly what its generator writes."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def test_generate_fixtures_reproduces_corpus(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "generate_fixtures", ROOT / "tools" / "generate_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    names = sorted(p.name for p in FIXTURES.glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
