"""The names the traced benchmark wraps and patches still resolve.

``perfbench/spans.py`` wraps package functions and methods by name, and
``perfbench/child.py`` replaces ``cli.read_container`` and
``analysis.monte_carlo_rate`` for its fault injection; a rename in the
package would otherwise surface only when the benchmark runs.  The spans
module is read and executed here without importing it, so nothing is
written next to it.
"""

import inspect
import pathlib

import aeds
import aeds.cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def test_traced_names_resolve():
    spans = load_spans()
    assert spans["FUNCTIONS"] and spans["METHODS"]
    for module, attr, _, _ in spans["FUNCTIONS"]:
        assert callable(getattr(getattr(aeds, module), attr)), (module, attr)
    for module, cls, attr, _, _ in spans["METHODS"]:
        owner = getattr(getattr(aeds, module), cls)
        assert callable(getattr(owner, attr)), (module, cls, attr)


def test_patched_names_resolve():
    assert list(inspect.signature(aeds.cli.read_container).parameters) == \
        ["blob", "side_table", "sink"]
    assert callable(aeds.analysis.monte_carlo_rate)
