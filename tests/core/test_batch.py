"""Differential tests: the frame kernel vs the literal Algorithm 1.

These are the keystone correctness tests of the repository — every SHE
sketch funnels its insertions through ``apply_batch``.  Each test feeds
the same touches to the kernel and to the one-touch-at-a-time
``NaiveHardwareFrame`` / ``NaiveSoftwareFrame`` references in
``tests/helpers.py`` and asserts identical cells (and marks), across
per-touch and item-major ``times``, ``int64`` / ``uint8`` / ``uint32``
cells, and each of the hardware kernel's three branches.
"""

import numpy as np
import pytest

from repro.core.base import make_frame
from repro.core.batch import apply_batch
from repro.core.config import SheConfig
from repro.core.csm import UpdateKind

from helpers import NaiveHardwareFrame, NaiveSoftwareFrame


KINDS = [UpdateKind.SET_ONE, UpdateKind.ADD_ONE, UpdateKind.MAX_RANK, UpdateKind.MIN_HASH]
DTYPES = [np.int64, np.uint8, np.uint32]
BRANCHES = ["no-flip", "single-flip", "multi-cycle"]


def random_touches(rng, n, m, t_span, kind, *, k=1, t0=0):
    """``n`` items at sorted times in ``[t0, t0 + t_span)``, ``k``
    touches each, laid out item-major (``cells.size == k * n``)."""
    times = np.sort(rng.integers(t0, t0 + t_span, size=n)).astype(np.int64)
    cells = rng.integers(0, m, size=n * k).astype(np.int64)
    if kind in (UpdateKind.MAX_RANK, UpdateKind.MIN_HASH):
        values = rng.integers(1, 30, size=n * k).astype(np.int64)
    else:
        values = None
    return times, cells, values


def empty_for(kind):
    return 255 if kind is UpdateKind.MIN_HASH else 0


def feed_naive(naive, times, cells, values, kind):
    """Replay a (possibly item-major) batch one touch at a time."""
    k = cells.size // times.size
    for i in range(cells.size):
        naive.touch(
            int(cells[i]),
            int(times[i // k]),
            kind,
            None if values is None else int(values[i]),
        )


def naive_cells(naive, dtype):
    # the reference counts in unbounded ints; fixed-width cells wrap
    return np.asarray(naive.cells, dtype=np.int64).astype(dtype).tolist()


def hw_branch(frame, times, cells):
    """Which hardware-kernel branch a batch takes (mirrors the kernel's
    own branch conditions).

    ``no-flip``: no group changes parity inside the batch;
    ``single-flip``: some do, but the batch spans under one ``Tcycle``;
    ``multi-cycle``: flips in a batch at least one ``Tcycle`` wide.
    """
    per_touch = np.repeat(times, cells.size // times.size)
    gids = cells // frame.group_width
    parity = ((per_touch + frame.offsets[gids]) // frame.t_cycle) % 2
    last = np.full(frame.num_groups, -1)
    last[gids] = parity
    if not np.any(parity != last[gids]):
        return "no-flip"
    if int(times[-1]) - int(times[0]) < frame.t_cycle:
        return "single-flip"
    return "multi-cycle"


def branch_batch(branch, frame, kind, seed, *, t_min, k=1, n=300):
    """A random batch starting at or after ``t_min`` that lands in
    ``branch`` when applied to ``frame``."""
    rng = np.random.default_rng(seed)
    t_cycle = frame.t_cycle
    spans = {
        "no-flip": (1, t_cycle // (2 * frame.num_groups)),
        "single-flip": (t_cycle // 3, t_cycle - 1),
        "multi-cycle": (t_cycle, 6 * t_cycle),
    }[branch]
    for _ in range(500):
        span = int(rng.integers(spans[0], spans[1] + 1))
        t0 = t_min + int(rng.integers(0, 4 * t_cycle))
        batch = random_touches(rng, n, frame.num_cells, span, kind, k=k, t0=t0)
        if hw_branch(frame, batch[0], batch[1]) == branch:
            return batch
    raise AssertionError(f"no random batch reached the {branch} branch")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hardware_batch_matches_naive(kind, seed):
    cfg = SheConfig(window=40, alpha=0.3, group_width=4)
    m = 16
    empty = empty_for(kind)
    for dtype in DTYPES:
        rng = np.random.default_rng(seed)
        fast = make_frame("hardware", cfg, m, dtype=dtype, empty_value=empty, cell_bits=8)
        naive = NaiveHardwareFrame(cfg, m, empty_value=empty)

        times, cells, values = random_touches(rng, 400, m, 6 * cfg.t_cycle, kind)
        apply_batch(fast, times, cells, values, kind)
        feed_naive(naive, times, cells, values, kind)

        assert fast.cells.tolist() == naive_cells(naive, dtype)
        assert fast.marks.tolist() == naive.marks


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_software_batch_matches_naive(kind, seed):
    cfg = SheConfig(window=40, alpha=0.3)
    m = 16
    empty = empty_for(kind)
    for dtype in DTYPES:
        rng = np.random.default_rng(seed + 100)
        fast = make_frame("software", cfg, m, dtype=dtype, empty_value=empty, cell_bits=8)
        naive = NaiveSoftwareFrame(cfg, m, empty_value=empty)

        times, cells, values = random_touches(rng, 400, m, 6 * cfg.t_cycle, kind)
        apply_batch(fast, times, cells, values, kind)
        feed_naive(naive, times, cells, values, kind)
        naive.advance(int(times[-1]))

        assert fast.cells.tolist() == naive_cells(naive, dtype)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("frame_kind", ["hardware", "software"])
@pytest.mark.parametrize("kind", KINDS)
def test_item_major_times_match_naive(kind, frame_kind, k):
    """One time per item, ``k`` touches per item (the sketches' layout)."""
    rng = np.random.default_rng(11 + k)
    cfg = SheConfig(window=40, alpha=0.3, group_width=4)
    m = 16
    empty = empty_for(kind)
    fast = make_frame(frame_kind, cfg, m, dtype=np.uint32, empty_value=empty, cell_bits=8)
    ref = NaiveHardwareFrame if frame_kind == "hardware" else NaiveSoftwareFrame
    naive = ref(cfg, m, empty_value=empty)

    times, cells, values = random_touches(rng, 300, m, 6 * cfg.t_cycle, kind, k=k)
    assert cells.size == k * times.size
    apply_batch(fast, times, cells, values, kind)
    feed_naive(naive, times, cells, values, kind)
    if frame_kind == "software":
        naive.advance(int(times[-1]))

    assert fast.cells.tolist() == naive_cells(naive, np.uint32)
    if frame_kind == "hardware":
        assert fast.marks.tolist() == naive.marks


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("branch", BRANCHES)
def test_each_hardware_branch_matches_naive(branch, kind, dtype, k):
    """Every branch of the hardware kernel is reached and exact."""
    cfg = SheConfig(window=64, alpha=0.5, group_width=4)
    m = 32
    empty = empty_for(kind)
    fast = make_frame("hardware", cfg, m, dtype=dtype, empty_value=empty, cell_bits=8)
    naive = NaiveHardwareFrame(cfg, m, empty_value=empty)
    # a warm-up batch first, so the branch batch meets non-empty cells
    # and marks that may or may not match its first parity
    warm = random_touches(np.random.default_rng(5), 200, m, cfg.t_cycle, kind, k=k)
    apply_batch(fast, *warm, kind)
    feed_naive(naive, *warm, kind)

    times, cells, values = branch_batch(
        branch, fast, kind, BRANCHES.index(branch), t_min=int(warm[0][-1]), k=k
    )
    assert hw_branch(fast, times, cells) == branch
    apply_batch(fast, times, cells, values, kind)
    feed_naive(naive, times, cells, values, kind)

    assert fast.cells.tolist() == naive_cells(naive, dtype)
    assert fast.marks.tolist() == naive.marks


@pytest.mark.parametrize("dtype", [np.uint8, np.uint32])
@pytest.mark.parametrize("branch", BRANCHES)
def test_add_one_wraparound_matches_naive(branch, dtype):
    """Counters wrap modulo the cell width.  uint8 counters wrap on
    every branch, including the single-flip branch's scatter-every-
    touch-then-undo path, whose intermediate sum overshoots the
    surviving count; uint32 ones start just below 2**32 and wrap where
    no cleaning resets them first (the no-flip branch)."""
    cfg = SheConfig(window=2000, alpha=0.5, group_width=2)
    m = 4
    width = np.iinfo(dtype).max + 1
    fast = make_frame("hardware", cfg, m, dtype=dtype, empty_value=0, cell_bits=8)
    naive = NaiveHardwareFrame(cfg, m, empty_value=0)
    if dtype is np.uint32:
        # reaching 2**32 by touches is out of reach; start the counters
        # just below it instead (the same in the reference)
        fast.cells[:] = width - 5
        naive.cells = [width - 5] * m

    # group 0 (cells 0-1) flips parity at every multiple of Tcycle;
    # cell 0 gets 4/5 of each 400-touch run, enough to wrap a uint8
    rng = np.random.default_rng(3)
    b = cfg.t_cycle

    def run(lo, hi, n=400):
        return np.sort(rng.integers(lo, hi, size=n))

    parts = {
        "no-flip": [run(1, 400), run(400, 800)],
        "single-flip": [run(b - 200, b), run(b, b + 200)],
        "multi-cycle": [run(b - 200, b), run(b, 2 * b, 50), run(2 * b, 2 * b + 200)],
    }[branch]
    times = np.concatenate(parts).astype(np.int64)
    cells = np.zeros(times.size, dtype=np.int64)
    cells[::5] = 1
    assert hw_branch(fast, times, cells) == branch
    apply_batch(fast, times, cells, None, UpdateKind.ADD_ONE)
    feed_naive(naive, times, cells, None, UpdateKind.ADD_ONE)

    assert fast.cells.tolist() == naive_cells(naive, dtype)
    assert fast.marks.tolist() == naive.marks


@pytest.mark.parametrize("frame_kind", ["hardware", "software"])
def test_split_batches_equal_one_batch(frame_kind):
    """Inserting in many small batches == one big batch."""
    rng = np.random.default_rng(7)
    cfg = SheConfig(window=50, alpha=0.4, group_width=4)
    m = 32
    f1 = make_frame(frame_kind, cfg, m, dtype=np.int64, empty_value=0, cell_bits=8)
    f2 = make_frame(frame_kind, cfg, m, dtype=np.int64, empty_value=0, cell_bits=8)
    times, cells, _ = random_touches(rng, 600, m, 8 * cfg.t_cycle, UpdateKind.ADD_ONE)
    apply_batch(f1, times, cells, None, UpdateKind.ADD_ONE)
    # split at arbitrary points
    for lo, hi in [(0, 13), (13, 200), (200, 201), (201, 600)]:
        apply_batch(f2, times[lo:hi], cells[lo:hi], None, UpdateKind.ADD_ONE)
    # marks may differ on groups f2 lazily cleaned later, but a final
    # check at the same time must converge the cell contents
    f1.prepare_query_all(int(times[-1]))
    f2.prepare_query_all(int(times[-1]))
    assert np.array_equal(f1.cells, f2.cells)


def test_insert_many_retains_bounded_scratch():
    """A whole-trace ``insert_many`` runs the kernel in fixed-size
    chunks, so the thread-local scratch it keeps is sized by the chunk,
    not by the trace."""
    import threading

    from repro.core import SheCountMin, base, batch

    sketch = SheCountMin(1 << 16, 1 << 12)  # k = 8 touches per item
    retained = []

    def run():  # a fresh thread starts with an empty scratch pool
        sketch.insert_many(np.arange(1_000_000, dtype=np.uint64))
        retained.append(sum(b.nbytes for b in batch._scratch_pool.bufs))

    worker = threading.Thread(target=run)
    worker.start()
    worker.join()

    touches = base._CHUNK * sketch.num_hashes
    cap = 2 * 8 * (1 << (touches - 1).bit_length())  # two int64 buffers
    assert base._CHUNK >= 8192  # an engine's default flush is one call
    assert retained == [cap]
    assert cap <= 2 << 20


def test_empty_batch_is_noop():
    cfg = SheConfig(window=10, alpha=0.5, group_width=2)
    f = make_frame("hardware", cfg, 8, dtype=np.int64, empty_value=0, cell_bits=8)
    apply_batch(f, np.asarray([], dtype=np.int64), np.asarray([], dtype=np.int64), None, UpdateKind.SET_ONE)
    assert np.all(f.cells == 0)


def test_single_touch_sets_mark():
    cfg = SheConfig(window=10, alpha=0.5, group_width=2)
    f = make_frame("hardware", cfg, 8, dtype=np.int64, empty_value=0, cell_bits=8)
    # touch at a time where group 0's mark has flipped once (t >= Tcycle)
    t = cfg.t_cycle
    apply_batch(f, np.asarray([t]), np.asarray([0]), None, UpdateKind.SET_ONE)
    assert f.marks[0] == 1
    assert f.cells[0] == 1


def test_rejects_unknown_frame():
    with pytest.raises(TypeError):
        apply_batch(object(), np.asarray([0]), np.asarray([0]), None, UpdateKind.SET_ONE)


def test_rejects_ragged_item_major_batch():
    cfg = SheConfig(window=10, alpha=0.5, group_width=2)
    f = make_frame("hardware", cfg, 8, dtype=np.int64, empty_value=0, cell_bits=8)
    with pytest.raises(ValueError, match="multiple"):
        apply_batch(f, np.asarray([0, 1]), np.asarray([0, 1, 2]), None, UpdateKind.SET_ONE)


def test_duplicate_cell_same_time_add():
    """k hashes hitting the same counter at the same instant both count."""
    cfg = SheConfig(window=10, alpha=0.5, group_width=2)
    f = make_frame("hardware", cfg, 8, dtype=np.int64, empty_value=0, cell_bits=8)
    apply_batch(f, np.asarray([3, 3]), np.asarray([5, 5]), None, UpdateKind.ADD_ONE)
    assert f.cells[5] == 2


# -- every registered kind, end to end through insert_at ---------------------

BUILT_IN_KINDS = ["bf", "bm", "hll", "cm", "mh", "generic", "wq"]


def _build(kind, frame_kind):
    import repro.obs.windows  # noqa: F401  (registers "wq")
    from repro.core.csm import COUNT_MIN_SPEC
    from repro.core.registry import get_descriptor

    kw = {"frame": frame_kind, "seed": 9}
    if kind == "generic":
        kw["spec"] = COUNT_MIN_SPEC
    if kind == "wq":
        kw.pop("seed")
    return get_descriptor(kind).build(64, 64, **kw)


def _naive_for(frame):
    ref = NaiveHardwareFrame if frame_kind_of(frame) == "hardware" else NaiveSoftwareFrame
    return ref(frame.config, frame.num_cells, empty_value=int(frame.empty_value))


def frame_kind_of(frame):
    from repro.core.hardware_frame import HardwareFrame

    return "hardware" if isinstance(frame, HardwareFrame) else "software"


@pytest.mark.parametrize("frame_kind", ["hardware", "software"])
@pytest.mark.parametrize("kind", BUILT_IN_KINDS)
def test_registered_kind_insert_at_matches_naive(kind, frame_kind):
    """A real sketch's ``insert_at`` leaves the same cells and marks as
    its touches fed one at a time through the reference frame."""
    rng = np.random.default_rng(21)
    sketch = _build(kind, frame_kind)
    keys = rng.integers(0, 500, size=400).astype(np.uint64)
    # sparse union-stream times, as a shard sees them
    times = np.cumsum(rng.integers(1, 4, size=keys.size)).astype(np.int64)

    if kind == "mh":
        from repro.core.csm import UpdateKind as U

        frames = sketch.frames
        naives = [_naive_for(f) for f in frames]
        for side in (0, 1):
            for lo, hi in [(0, 150), (150, 151), (151, 400)]:
                sketch.insert_at(side, keys[lo:hi], times[lo:hi])
            values = sketch._column_hashes(keys)
            m = sketch.num_counters
            cells = np.tile(np.arange(m), keys.size)
            feed_naive(naives[side], times, cells, values.reshape(-1), U.MIN_HASH)
        pairs = list(zip(frames, naives))
    else:
        for lo, hi in [(0, 150), (150, 151), (151, 400)]:
            sketch.insert_at(keys[lo:hi], times[lo:hi])
        naive = _naive_for(sketch.frame)
        t_cols, cells, values, update = sketch.clone_empty()._touch_columns(keys, times)
        feed_naive(naive, t_cols, cells, values, update)
        pairs = [(sketch.frame, naive)]

    for frame, naive in pairs:
        if frame_kind == "software":
            naive.advance(int(times[-1]))
        assert frame.cells.tolist() == naive_cells(naive, frame.cells.dtype)
        if frame_kind == "hardware":
            assert frame.marks.tolist() == naive.marks
