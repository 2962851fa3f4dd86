"""The benchmark's span tracer finds every target it names in the package.

``perfbench/spans.py`` looks its targets up by module and attribute name,
so a rename in ``src/`` breaks every traced benchmark run. This checks the
names from the package's own test suite.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_span_target_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import spans

    modules = {name: importlib.import_module(name)
               for name in {target[0] for target in spans.TARGETS} | set(spans.JSON_MODULES)}
    methods = [(getattr(modules[module], attr.split(".")[0]), attr.split(".")[1])
               for module, attr, _, _ in spans.TARGETS if "." in attr]
    originals = [vars(cls)[name] for cls, name in methods]
    json_modules = {name: modules[name].json for name in spans.JSON_MODULES}
    tracer = spans.Tracer()
    spans.install_all(tracer)
    try:
        for module, attr, _, _ in spans.TARGETS:
            if "." not in attr:
                assert hasattr(getattr(modules[module], attr), "__wrapped__"), attr
        assert all(vars(cls)[name] is not original
                   for (cls, name), original in zip(methods, originals))
        assert all(modules[name].json is not json_modules[name] for name in spans.JSON_MODULES)
    finally:
        tracer.uninstall()
    assert [vars(cls)[name] for cls, name in methods] == originals
    assert {name: modules[name].json for name in spans.JSON_MODULES} == json_modules
