"""The names the benchmark's traced run wraps exist where it looks them up.

``bench/spans.py`` replaces each layer function on its owner, the module
or class the caller reads it from. A simplification that deletes or
moves one of them breaks only the traced benchmark run; this test runs
the same ``patch_layers`` against a recorder that wraps nothing, so the
deletion fails here, naming the missing attribute.
"""

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


class NameRecorder:
    """Takes the place of ``SpanRecorder``: notes each owner and attribute
    ``patch_layers`` asks for and changes nothing."""

    def __init__(self):
        self.patched = []
        self.missing = []

    def patch(self, owner, attribute, name, **options):
        where = f"{owner.__name__}.{attribute}"
        self.patched.append(where)
        if attribute not in vars(owner):
            self.missing.append(f"{where} (span {name})")


def test_every_name_the_traced_run_wraps_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    recorder = NameRecorder()
    spans.patch_layers(recorder)
    assert not recorder.missing, "not defined: " + ", ".join(recorder.missing)
    assert len(recorder.patched) == len(set(recorder.patched)) > 20
