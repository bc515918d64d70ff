"""The traced benchmark still finds every library name it wraps.

``perfbench/layers.py`` patches hierasure functions and methods by name
(``linalg.solve``, ``correctability.pattern_system``,
``OrderedBasis.coordinates``, ...).  Renaming or deleting one of them breaks
``perfbench/run.py --trace 1`` only; this test catches it in the suite.
"""

from pathlib import Path

from hierasure import correctability, fields, linalg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    originals = (linalg.solve, correctability.pattern_system, fields.OrderedBasis.coordinates)
    tr = Tracer()
    try:
        layers.install(tr)
        assert tr._patched
        assert linalg.solve is not originals[0]
    finally:
        tr.uninstall()
    assert (linalg.solve, correctability.pattern_system, fields.OrderedBasis.coordinates) == originals
