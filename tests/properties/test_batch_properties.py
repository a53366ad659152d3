"""Property-based tests: batch cleaning semantics vs Algorithm 1.

Hypothesis drives random touch sequences through the frame kernel and
the literal per-item reference; they must agree bit for bit on cells
(and marks for the hardware frame) under every update kind, window,
alpha, group width, cell width and touch pattern, with ``times`` given
per touch or item-major (one time per item, ``k`` touches per item).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import make_frame
from repro.core.batch import apply_batch
from repro.core.config import SheConfig
from repro.core.csm import UpdateKind

from helpers import NaiveHardwareFrame, NaiveSoftwareFrame

KINDS = st.sampled_from(list(UpdateKind))
DTYPES = st.sampled_from([np.int64, np.uint8, np.uint32])


@st.composite
def touch_sequences(draw):
    window = draw(st.integers(5, 60))
    alpha = draw(st.floats(0.1, 3.0))
    w = draw(st.sampled_from([1, 2, 4, 8]))
    groups = draw(st.integers(1, 6))
    m = w * groups
    cfg = SheConfig(window=window, alpha=alpha, group_width=w)
    n = draw(st.integers(1, 120))
    k = draw(st.sampled_from([1, 1, 2, 3]))  # touches per item
    span = draw(st.integers(1, 5 * cfg.t_cycle))
    times = sorted(draw(st.lists(st.integers(0, span), min_size=n, max_size=n)))
    cells = draw(st.lists(st.integers(0, m - 1), min_size=n * k, max_size=n * k))
    values = draw(st.lists(st.integers(0, 40), min_size=n * k, max_size=n * k))
    return cfg, m, times, cells, values


def replay(naive, times, cells, values, kind):
    """Feed an item-major batch to a reference frame touch by touch."""
    k = len(cells) // len(times)
    for i, (c, v) in enumerate(zip(cells, values)):
        naive.touch(c, times[i // k], kind, v)


def wrapped(naive, dtype):
    # the reference counts in unbounded ints; fixed-width cells wrap
    return np.asarray(naive.cells, dtype=np.int64).astype(dtype).tolist()


@given(touch_sequences(), KINDS, DTYPES)
@settings(max_examples=120, deadline=None)
def test_hardware_batch_equals_algorithm1(seq, kind, dtype):
    cfg, m, times, cells, values = seq
    empty = 255 if kind is UpdateKind.MIN_HASH else 0
    fast = make_frame("hardware", cfg, m, dtype=dtype, empty_value=empty, cell_bits=8)
    naive = NaiveHardwareFrame(cfg, m, empty_value=empty)

    t_arr = np.asarray(times, dtype=np.int64)
    c_arr = np.asarray(cells, dtype=np.int64)
    v_arr = np.asarray(values, dtype=np.int64)
    apply_batch(fast, t_arr, c_arr, v_arr, kind)
    replay(naive, times, cells, values, kind)

    assert fast.cells.tolist() == wrapped(naive, dtype)
    assert fast.marks.tolist() == naive.marks


@given(touch_sequences(), KINDS, DTYPES)
@settings(max_examples=120, deadline=None)
def test_software_batch_equals_sweep(seq, kind, dtype):
    cfg, m, times, cells, values = seq
    empty = 255 if kind is UpdateKind.MIN_HASH else 0
    fast = make_frame("software", cfg, m, dtype=dtype, empty_value=empty, cell_bits=8)
    naive = NaiveSoftwareFrame(cfg, m, empty_value=empty)

    apply_batch(
        fast,
        np.asarray(times, dtype=np.int64),
        np.asarray(cells, dtype=np.int64),
        np.asarray(values, dtype=np.int64),
        kind,
    )
    replay(naive, times, cells, values, kind)
    naive.advance(times[-1])

    assert fast.cells.tolist() == wrapped(naive, dtype)


@given(touch_sequences())
@settings(max_examples=60, deadline=None)
def test_hardware_ages_bounded(seq):
    cfg, m, times, cells, _ = seq
    f = make_frame("hardware", cfg, m, dtype=np.int64, empty_value=0, cell_bits=8)
    t = times[-1]
    ages = f.all_cell_ages(t)
    assert ages.min() >= 0
    assert ages.max() < cfg.t_cycle


@given(touch_sequences())
@settings(max_examples=60, deadline=None)
def test_mature_implies_legal_everywhere(seq):
    cfg, m, times, _, _ = seq
    for kind in ("hardware", "software"):
        f = make_frame(kind, cfg, m, dtype=np.int64, empty_value=0, cell_bits=8)
        t = times[-1]
        idx = np.arange(m)
        mature = f.mature_mask(idx, t)
        legal = f.legal_mask(idx, t)
        assert np.all(~mature | legal)
