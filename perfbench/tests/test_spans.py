"""Span fold and wrapper install/restore."""

import types

import pytest

from spans import SpanRecorder, fold, self_times, union_length


def span(sid, name, start, end, parent=None, attrs=None):
    return [sid, name, start, end, parent, None, 0, attrs or {}]


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_nested_and_overlapping_children():
    spans = [
        span(1, "root", 0.0, 10.0),
        # Two overlapping children cover [1, 5) once, not twice.
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 2.0, 5.0, parent=1),
        # A grandchild only reduces its own parent's self time.
        span(4, "c", 2.5, 3.5, parent=3),
        # A child running past its parent is clipped to the parent.
        span(5, "d", 9.0, 12.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0)


def test_fold_sums_attrs_and_counts_outermost_wall_once():
    spans = [
        span(1, "x", 0.0, 4.0, attrs={"frames": 3}),
        span(2, "x", 1.0, 2.0, parent=1, attrs={"frames": 2}),
        span(3, "y", 5.0, 6.0),
        span(4, "open", 7.0, None),  # never closed: ignored
    ]
    f = fold(spans)
    assert f.calls == {"x": 2, "y": 1}
    assert f.wall_s["x"] == pytest.approx(4.0)
    assert f.self_s["x"] == pytest.approx(3.0 + 1.0)
    assert f.get_attr("x", "frames") == 5
    assert f.get_attr("y", "frames") == 0


class Target:
    def work(self, n):
        return n * 2

    def inner(self):
        return "inner"


def test_wrap_records_and_restore_puts_back_the_original():
    original = vars(Target)["work"]
    recorder = SpanRecorder()
    recorder.wrap(Target, "work", "t.work",
                  before=lambda a, k: (a, k, {"n": a[1]}),
                  after=lambda a, k, r, attrs: attrs.update(out=r))
    assert Target().work(3) == 6
    assert recorder.spans[0][1] == "t.work"
    assert recorder.spans[0][7] == {"n": 3, "out": 6}
    recorder.restore()
    assert vars(Target)["work"] is original
    assert recorder.installed == 0


def test_wrap_module_global_and_refuse_inherited_attribute():
    module = types.ModuleType("fake")
    module.f = lambda: 1
    original = module.f
    recorder = SpanRecorder()
    recorder.wrap(module, "f", "fake.f")
    assert module.f() == 1 and module.f is not original

    class Child(Target):
        pass

    with pytest.raises(AttributeError):
        recorder.wrap(Child, "work", "child.work")
    recorder.restore()
    assert module.f is original
    assert "work" not in vars(Child)


def test_pass_through_under_skips_nested_spans():
    recorder = SpanRecorder()
    recorder.wrap(Target, "inner", "t.inner", pass_through_under=("outer",))
    try:
        record = recorder.open("outer")
        assert Target().inner() == "inner"
        recorder.close(record)
        Target().inner()
    finally:
        recorder.restore()
    assert [s[1] for s in recorder.spans] == ["outer", "t.inner"]


def test_exception_still_closes_the_span():
    recorder = SpanRecorder()
    recorder.wrap(Target, "work", "t.work")
    try:
        with pytest.raises(TypeError):
            Target().work()
    finally:
        recorder.restore()
    assert recorder.spans[0][3] is not None
    assert recorder.top_name() is None


def test_layer_install_restores_every_repro_attribute():
    import layers

    recorder = SpanRecorder()
    layers.install(recorder)
    patched = list(recorder._patches)
    assert len(patched) > 20
    recorder.restore()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
