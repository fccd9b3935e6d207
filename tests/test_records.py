"""Value records are NamedTuples; the few dataclasses left say why they are not."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import multitwist
from multitwist.flow import (ConvergenceReport, FlowStats, SaddleSearchReport, SurfacePoint,
                             Trajectory)
from multitwist.formats import TrajectoryDump
from multitwist.graphs import (BipartiteConfigGraph, HarmonicAssignment, HarmonicReport,
                               LadderFamily, TruncatedHarmonicResult)
from multitwist.mobius import (BrennerReport, MobiusClass, ProjectiveDirection, RenormVerdict,
                               TwistWord)
from multitwist.recipe import CurveRecipeOutput, EndTreeSpec, RecipeReport, SurgeredGraph
from multitwist.surfaces import CornerCycle, RectangleComplex, RibbonData

RECORDS = (
    SurfacePoint, Trajectory, FlowStats, SaddleSearchReport, ConvergenceReport,
    TrajectoryDump,
    TwistWord, MobiusClass, BrennerReport, ProjectiveDirection, RenormVerdict,
    SurgeredGraph, CurveRecipeOutput, RecipeReport,
    TruncatedHarmonicResult, HarmonicReport,
    RibbonData, CornerCycle,
)

# each needs what a NamedTuple cannot give: a hidden field, a __post_init__
# or a cached_property's __dict__
DATACLASSES = {
    BipartiteConfigGraph, HarmonicAssignment, LadderFamily,
    EndTreeSpec, RectangleComplex,
}


def _package_classes() -> set:
    found = set()
    for info in pkgutil.iter_modules(multitwist.__path__):
        mod = importlib.import_module(f"multitwist.{info.name}")
        found |= {obj for obj in vars(mod).values()
                  if inspect.isclass(obj) and obj.__module__ == mod.__name__}
    return found


def test_records_are_named_tuples_and_each_dataclass_says_why():
    for cls in RECORDS:
        values = [f"v{k}" for k in range(len(cls._fields))]
        r = cls(*values)
        assert isinstance(r, tuple) and tuple(r) == tuple(values), cls
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values))
        assert repr(r) == f"{cls.__name__}({fields})"
        with pytest.raises(AttributeError):
            setattr(r, cls._fields[0], None)
        with pytest.raises(AttributeError):
            r.extra = None
    found = {cls for cls in _package_classes() if dataclasses.is_dataclass(cls)}
    assert found == DATACLASSES
    for cls in DATACLASSES:  # the decorator line carries the reason
        assert "# not a NamedTuple: " in inspect.getsourcelines(cls)[0][0], cls


def test_replace_rebuilds_every_named_tuple():
    # _replace goes through _make, which checks len() of the new tuple, so a
    # record that defines __len__ breaks it
    named = {cls for cls in _package_classes() if issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert set(RECORDS) <= named
    for cls in named:
        r = cls(*[(k, k, k) for k in range(len(cls._fields))])
        assert r._replace() == r, cls
    word = TwistWord.make("aBa")
    assert word._replace() == word
    assert word._replace(positive_semigroup=False) == (word.letters, False)
