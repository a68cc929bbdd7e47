import csv
import io
import json
import math
import re
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BLOCK_OF_LINES, fixed_fading, hex_values, read_samples, sample_values
from cvfade import channel, outputs
from cvfade.channel import (
    CompositeChannel,
    FadingStats,
    apply_composite,
    apply_equivalent_fixed,
    fading_stats,
    read_eta_csv,
)
from cvfade.cli import main
from cvfade.errors import DomainError, NonPhysicalState
from cvfade.gaussian import symplectic_eigenvalues
from cvfade.sources import ProtocolParams, build_source


def leaf_order_sum(values) -> float:
    """The sum of a 1-D array in the order fading_stats documents, built
    another way: the full leaves split into runs by the binary digits of their
    count, the longest run first, each run a balanced tree of numpy's leaf
    sums (first half + second half); then the partial leaf; and the runs
    added up from the last one."""
    leaf = channel._LEAF
    full = values.size // leaf

    def tree(first, count):
        if count == 1:
            return float(values[first * leaf:(first + 1) * leaf].sum())
        return tree(first, count // 2) + tree(first + count // 2, count // 2)

    runs, first = [], 0
    for bit in reversed(range(full.bit_length())):
        if full >> bit & 1:
            runs.append(tree(first, 1 << bit))
            first += 1 << bit
    if values.size > first * leaf:
        runs.append(float(values[first * leaf:].sum()))
    total = runs.pop()
    for run in reversed(runs):
        total = run + total
    return total


class TestFadingStats:
    def test_constant_channel(self):
        st_ = fading_stats(np.full(100, 0.7))
        assert st_.mean_eta == pytest.approx(0.7)
        assert st_.mean_sqrt_eta == pytest.approx(math.sqrt(0.7))
        assert st_.var_sqrt == pytest.approx(0.0, abs=1e-15)

    def test_dense_uniform_grid(self):
        # midpoint grid on [0, 1]: <eta> = 1/2, <sqrt(eta)> = 2/3, Var = 1/18
        n = 200_000
        grid = (np.arange(n) + 0.5) / n
        st_ = fading_stats(grid)
        assert st_.mean_eta == pytest.approx(0.5, abs=1e-12)
        assert st_.mean_sqrt_eta == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert st_.var_sqrt == pytest.approx(1.0 / 18.0, abs=1e-4)

    def test_on_off_channel(self):
        st_ = fading_stats([0.0, 1.0])
        assert st_.mean_eta == 0.5
        assert st_.mean_sqrt_eta == 0.5
        assert st_.var_sqrt == pytest.approx(0.25)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            fading_stats([0.5, 1.2])
        with pytest.raises(DomainError):
            fading_stats([])

    @pytest.mark.parametrize("samples, first", [
        ([0.5, 1.2, -1.0], "sample 1 (from 0) is 1.2"),
        ([0.0, 1.0, -1e-300], "sample 2 (from 0) is -1e-300"),
        ([0.5, math.nan], "sample 1 (from 0) is nan"),
        ([math.inf, 0.5], "sample 0 (from 0) is inf"),
        ([0.25, -math.inf], "sample 1 (from 0) is -inf"),
    ])
    def test_names_the_first_sample_outside_range(self, samples, first):
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\]: " + re.escape(first) + "$"):
            fading_stats(np.array(samples))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-300, 1 + 2**-52])
    @pytest.mark.parametrize("where", [0, 12_345, 19_999])
    def test_names_a_sample_outside_range_at_any_position(self, bad, where):
        samples = np.random.default_rng(7).random(20_000)
        samples[where] = bad
        with pytest.raises(DomainError, match=re.escape(f"sample {where} (from 0) is {bad!r}") + "$"):
            fading_stats(samples)

    @pytest.mark.parametrize("sizes", [
        pytest.param(range(401), id="0_to_400"),
        pytest.param([m * channel._LEAF + d for m in (1, 2, 8) for d in (-1, 0, 1)], id="around_leaf_multiples"),
        pytest.param(np.random.default_rng(18).integers(0, 3_000_001, 12), id="random_to_3e6"),
    ])
    def test_moments_follow_the_leaf_order(self, sizes):
        """The moments are the sums in the documented order, over n; up to
        one leaf they are numpy's a.mean() and np.sqrt(a).mean()."""
        samples = np.random.default_rng(5).random(max(sizes)) ** 3
        for n in map(int, sizes):
            if not n:
                continue
            a = samples[:n]
            st_ = fading_stats(a)
            expected = (leaf_order_sum(a) / n, leaf_order_sum(np.sqrt(a)) / n)
            assert (st_.mean_eta.hex(), st_.mean_sqrt_eta.hex()) == tuple(map(float.hex, expected)), n
            if n <= channel._LEAF:
                assert (st_.mean_eta.hex(), st_.mean_sqrt_eta.hex()) == (
                    float(a.mean()).hex(), float(np.sqrt(a).mean()).hex()), n

    def test_two_dimensional_and_list_inputs_follow_the_leaf_order(self):
        a = np.random.default_rng(6).random((300, 70))  # C-contiguous, 21000 samples
        flat = a.ravel()
        expected = (float.hex(leaf_order_sum(flat) / flat.size), float.hex(leaf_order_sum(np.sqrt(flat)) / flat.size))
        for samples in (a, a.tolist(), flat.tolist()):
            st_ = fading_stats(samples)
            assert (st_.mean_eta.hex(), st_.mean_sqrt_eta.hex()) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 127, 8191, 8193, 3 * 8192 + 5, 99_999, 1_000_000])
    def test_moments_are_within_the_pairwise_bound_of_fsum(self, n):
        """Both moments lie within (ceil(log2 n) + 1) eps relative of the
        correctly rounded means."""
        a = np.random.default_rng(n).random(n)
        st_ = fading_stats(a)
        bound = (math.ceil(math.log2(n)) + 1) * np.finfo(float).eps
        for got, values in ((st_.mean_eta, a), (st_.mean_sqrt_eta, np.sqrt(a))):
            exact = math.fsum(values.tolist()) / n
            assert abs(got - exact) <= bound * exact, (n, got, exact)

    def test_moments_hold_no_copy_of_the_samples(self):
        """Nothing of the samples' size is allocated: an np.sqrt copy and a
        range mask of 1e6 samples would peak at 9.0 MB."""
        samples = np.random.default_rng(8).random(1_000_000)
        tracemalloc.start()
        try:
            fading_stats(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak

    def test_jensen_violations_rejected(self):
        with pytest.raises(DomainError):
            FadingStats(mean_eta=0.5, mean_sqrt_eta=0.9)  # <eta> > <sqrt>
        with pytest.raises(DomainError):
            FadingStats(mean_eta=0.3, mean_sqrt_eta=0.7)  # <sqrt>^2 > <eta>

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
    def test_jensen_invariant_on_samples(self, samples):
        st_ = fading_stats(samples)
        assert st_.mean_sqrt_eta**2 <= st_.mean_eta + 1e-12
        assert st_.mean_eta <= st_.mean_sqrt_eta + 1e-12
        assert 0.0 <= st_.var_sqrt <= 0.25 + 1e-12


def fading_noise(params, stats, eta1=1.0):
    """(x, p) noise that apply_equivalent_fixed adds to the signal block, over a
    fixed channel of the same mean amplitude <sqrt(eta)>."""
    src = build_source(params)
    fixed = fixed_fading(stats.mean_sqrt_eta**2)
    fading_out = apply_equivalent_fixed(src, CompositeChannel(fading=stats, eta1=eta1))
    fixed_out = apply_equivalent_fixed(src, CompositeChannel(fading=fixed, eta1=eta1))
    return np.diag(fading_out.matrix[-2:, -2:] - fixed_out.matrix[-2:, -2:])


class TestEffectiveExcessNoise:
    """Fading adds eta_comb Var(sqrt(eta)) (V_q - 1) to each signal quadrature."""

    def test_formula(self):
        st_ = FadingStats(0.5, math.sqrt(0.49))
        assert st_.var_sqrt == pytest.approx(0.01)
        noise = fading_noise(ProtocolParams(v_s=1.0, v_m=1.0, b=1), st_, eta1=0.8)  # V_q = 2
        assert noise == pytest.approx([0.008, 0.008], rel=1e-9)

    def test_no_fading(self):
        noise = fading_noise(ProtocolParams(v_s=1.0, v_m=4.0, b=1), fixed_fading(0.8))
        assert noise == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_vacuum_quadrature_immune(self):
        # untrusted preparation noise on p leaves the signal x quadrature at vacuum
        st_ = FadingStats(0.5, math.sqrt(0.5 - 0.055))
        params = ProtocolParams(v_s=1.0, v_m=0.0, b=0, v_an=1.0, prep_noise_trust="untrusted")
        noise_x, noise_p = fading_noise(params, st_)
        assert noise_x == 0.0
        assert noise_p == pytest.approx(0.055, rel=1e-9)

    def test_negative_for_squeezed_quadrature(self):
        st_ = FadingStats(0.5, math.sqrt(0.48))
        noise_x, noise_p = fading_noise(ProtocolParams(v_s=0.5, v_m=0.0, b=0), st_)
        assert noise_x < 0.0
        assert noise_p > 0.0


class TestCompositeChannel:
    def test_derived_quantities(self):
        ch = CompositeChannel(
            fading=FadingStats(0.5, math.sqrt(0.49)),
            eta1=0.8, eta2=0.9, eps1=0.01, eps2=0.02, eps_atm=0.03,
        )
        assert ch.eta_comb == pytest.approx(0.72)
        assert ch.eps_plus == pytest.approx(0.02 + 0.03 * 0.9 + 0.01 * 0.9 * 0.5)
        assert ch.mean_transmittance == pytest.approx(0.36)

    def test_validation(self):
        good = fixed_fading(0.5)
        with pytest.raises(DomainError):
            CompositeChannel(fading=good, eta1=0.0)
        with pytest.raises(DomainError):
            CompositeChannel(fading=good, eps2=-0.1)


class TestApplyComposite:
    def test_identity_channel(self):
        src = build_source(ProtocolParams(v_s=0.5, v_m=1.5, b=0))
        out = apply_composite(src, CompositeChannel(fading=fixed_fading(1.0)))
        assert np.allclose(out.matrix, src.matrix, atol=1e-12)

    def test_pure_fading_no_fluctuations(self):
        src = build_source(ProtocolParams(v_s=0.5, v_m=1.5, b=0))
        out = apply_composite(src, CompositeChannel(fading=fixed_fading(0.5)))
        assert np.allclose(out.matrix[2:, 2:], 1.5 * np.eye(2), atol=1e-12)
        assert np.allclose(out.matrix[:2, 2:], math.sqrt(0.5) * src.matrix[:2, 2:], atol=1e-12)

    def test_fluctuations_only_touch_correlations(self):
        src = build_source(ProtocolParams(v_s=0.5, v_m=1.5, b=0))
        out = apply_composite(src, CompositeChannel(fading=FadingStats(0.5, 0.69)))
        assert np.allclose(out.matrix[2:, 2:], 1.5 * np.eye(2), atol=1e-12)
        assert np.allclose(out.matrix[:2, 2:], 0.69 * src.matrix[:2, 2:], atol=1e-12)

    def test_monotone_decorrelation_in_fading_strength(self):
        src = build_source(ProtocolParams(v_s=0.5, v_m=1.5, b=0))
        corr = []
        for var in (0.0, 0.01, 0.03, 0.05):
            st_ = FadingStats(0.5, math.sqrt(0.5 - var))
            out = apply_composite(src, CompositeChannel(fading=st_))
            corr.append(abs(out.matrix[0, 2]))
            assert np.allclose(out.matrix[2:, 2:], 1.5 * np.eye(2), atol=1e-12)
        assert all(b < a for a, b in zip(corr, corr[1:]))

    def test_equivalent_fixed_is_entrywise_identical(self, rng):
        for _ in range(300):
            v_s = rng.uniform(0.05, 1.0)
            params = ProtocolParams(
                v_s=v_s, v_m=rng.uniform(0.0, 30.0), b=0, v_an=rng.uniform(0.0, 2.0)
            )
            src = build_source(params)
            mean_eta = rng.uniform(0.05, 1.0)
            var = rng.uniform(0.0, 0.95 * mean_eta * (1.0 - mean_eta))
            ch = CompositeChannel(
                fading=FadingStats(mean_eta, math.sqrt(mean_eta - var)),
                eta1=rng.uniform(0.2, 1.0),
                eta2=rng.uniform(0.2, 1.0),
                eps1=rng.uniform(0.0, 0.05),
                eps2=rng.uniform(0.0, 0.05),
                eps_atm=rng.uniform(0.0, 0.05),
            )
            a = apply_composite(src, ch)
            b = apply_equivalent_fixed(src, ch)
            assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12

    def test_output_physical_on_random_inputs(self, rng):
        for _ in range(10_000):
            params = ProtocolParams(v_s=rng.uniform(0.02, 1.0), v_m=rng.uniform(0.0, 40.0), b=0)
            src = build_source(params)
            mean_eta = rng.uniform(0.01, 1.0)
            var = rng.uniform(0.0, 0.95 * mean_eta * (1.0 - mean_eta))
            ch = CompositeChannel(
                fading=FadingStats(mean_eta, math.sqrt(mean_eta - var)),
                eta1=rng.uniform(0.1, 1.0),
                eps2=rng.uniform(0.0, 0.1),
            )
            out = apply_composite(src, ch)  # raises NonPhysicalState on failure
            assert min(symplectic_eigenvalues(out)) >= 1.0 - 1e-9

    def test_inconsistent_stats_raise(self):
        bad = FadingStats.__new__(FadingStats)
        object.__setattr__(bad, "mean_eta", 0.05)
        object.__setattr__(bad, "mean_sqrt_eta", 0.999)  # impossible moments
        src = build_source(ProtocolParams(v_s=0.2, v_m=20.0, b=0))
        with pytest.raises(NonPhysicalState):
            apply_composite(src, CompositeChannel(fading=bad))


def test_read_eta_csv(tmp_path):
    p = tmp_path / "samples.csv"
    p.write_text("# metadata: {}\neta\n0.5\n0.25\n")
    assert read_eta_csv(p) == (fading_stats([0.5, 0.25]), 2)
    assert np.array_equal(read_samples(p), [0.5, 0.25])
    bad = tmp_path / "bad.csv"
    bad.write_text("transmittance\n0.5\n")
    with pytest.raises(DomainError):
        read_eta_csv(bad)


# --- the eta sample file against the reader it replaced ----------------------

def csv_float_reader(path):
    """The row-at-a-time reader (csv.reader plus float) that the block stream
    replaced, kept as the oracle for its values."""
    values = []
    with open(path, newline="") as fh:
        rows = (r for r in fh if not r.startswith("#"))
        reader = csv.reader(rows)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["eta"]:
            raise DomainError(f"expected single-column CSV with header 'eta' in {path}")
        for row in reader:
            if not row:
                continue
            values.append(float(row[0]))
    if not values:
        raise DomainError(f"no samples found in {path}")
    return np.asarray(values, dtype=float)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(sample_values(), min_size=1, max_size=40), data=st.data())
def test_reader_matches_csv_float_oracle(tmp_path_factory, values, data):
    """.17g and repr files, LF and CRLF, '#' and blank lines between rows and
    quoted cells read bit-identically with both readers."""
    fmt = data.draw(st.sampled_from([lambda v: format(v, ".17g"), repr]))
    eol = data.draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["# metadata: {}"] if data.draw(st.booleans()) else []
    lines.append("eta")
    for v in values:
        lines.append(data.draw(st.sampled_from(["", "", "# comment", "#"])))
        cell = fmt(v)
        lines.append(f'"{cell}"' if data.draw(st.booleans()) else cell)
    path = tmp_path_factory.mktemp("eta") / "samples.csv"
    with open(path, "w", newline="") as fh:
        fh.write(eol.join(ln for ln in lines if ln != "" or data.draw(st.booleans())) + eol)
    got = read_samples(path)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == (len(values),)
    assert hex_values(got) == hex_values(csv_float_reader(path)) == hex_values(values)


# files whose first fault is the header, before a row of two cells and a line
# that does not decode: within the first 8 KB, and beyond them
HEADER_FIRST = (b"x\n1\n0.5,0.7\n\xff\n", b"x\n1\n0.5,0.7\n" + b"0.5\n" * 3000 + b"\xff\n")
FIRST_OF_BLOCK = BLOCK_OF_LINES[:BLOCK_OF_LINES.index(b"\n") + 1].decode()


def record_reads(monkeypatch):
    """Lists that fill as the block stream runs: the files it opens, and for
    each call of numpy's reader, its max_rows and the lines it takes."""
    opened, calls = [], []
    load_body = outputs._load_body

    def load(lines, max_rows):
        taken = []
        calls.append((max_rows, taken))
        return load_body((taken.append(line) or line for line in lines), max_rows)

    monkeypatch.setattr(outputs, "open", lambda *args, **kw: opened.append(args) or open(*args, **kw), raising=False)
    monkeypatch.setattr(outputs, "_load_body", load)
    return opened, calls


def assert_single_pass(opened, calls, path, end=None):
    """The file was opened once; numpy's reader took no line that the kernel
    read, such as the first of BLOCK_OF_LINES; and its streaming calls, of
    _BLOCK rows each, took the lines after the kernel's once each, in order,
    through line `end` (the last line if None)."""
    assert len(opened) == 1, opened
    assert all(FIRST_OF_BLOCK not in taken for _, taken in calls)
    streamed = [line for max_rows, taken in calls if max_rows == outputs._BLOCK for line in taken]
    with open(path, newline="", errors="surrogateescape") as fh:
        lines = fh.readlines()[:end]
    assert streamed and streamed == lines[len(lines) - len(streamed):]


# bodies whose bad line follows more than one block of sample lines, and the line each error names
AFTER_BLOCK = {
    "non_numeric_after_block": (b"eta\r\n" + BLOCK_OF_LINES + b"abc\r\n", 7002),
    "non_utf8_after_block": (b"eta\r\n" + BLOCK_OF_LINES + b"\xff\xfe\r\n", 7002),
    "extra_cell_after_block": (b"eta\r\n" + BLOCK_OF_LINES + b"0.25,0.7\r\n", 7002),
    "nul_after_block": (b"eta\r\n" + BLOCK_OF_LINES + b"0.5\x00\r\n", 7002),
    "space_inside_after_block": (b"# m\neta\n" + BLOCK_OF_LINES + b"\n0.5\n0.5 0.7\n", 7005),
}


@pytest.mark.parametrize("body", [
    b"eta\n0.5\nabc\n",                       # a cell that is not a number
    b"eta\n0.5\n\xff\xfe\n",                  # bytes that are not UTF-8
    b"\xff\xfe",
    b"eta\n0.5,0.7\n",                        # an extra cell (csv + float read 0.5)
    b"eta\n0.5\n0.25,0.7\n",
    b"eta\n0.5\n   \n",                       # a cell of spaces
    b"# metadata: {}\r\neta\r\n",             # header only
    b"eta\n# comment\n\n",
    b"",
    b"\neta\n0.5\n",                          # header not on the first line
    b"eta,extra\n0.5,0.7\n",
    b"x" * 200_000 + b"\n0.5\n",           # a header beyond csv's field size limit
    *(pytest.param(body, id=name) for name, (body, _) in AFTER_BLOCK.items()),
    *(pytest.param(body, id=f"header_first_{i}") for i, body in enumerate(HEADER_FIRST)),
])
def test_reader_rejects_malformed_files(tmp_path, monkeypatch, body):
    path = tmp_path / "bad.csv"
    path.write_bytes(body)
    opened, calls = record_reads(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning leaks out of the reader
        with pytest.raises(DomainError) as err:
            read_samples(path)
    line = dict(AFTER_BLOCK.values()).get(body)
    if line:
        assert f"{path}: line {line} " in str(err.value)
        assert_single_pass(opened, calls, path, line)
    if body in HEADER_FIRST:
        assert str(err.value) == f"expected single-column CSV with header 'eta' in {path}"


def test_rejected_line_streams_the_file(tmp_path):
    """Naming the bad last line of a long file holds one block of lines, not the file."""
    path = tmp_path / "long.csv"
    path.write_bytes(b"eta\n" + b"".join(b"%.17g\n" % v for v in np.linspace(0.1, 0.9, 200_000)) + b"abc\n")
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=f"{re.escape(str(path))}: line 200002 is not a number"):
            read_samples(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def test_quoted_cell_across_a_block_boundary_is_one_cell(tmp_path):
    """A quoted cell whose line end falls on the last line of a block is read
    whole, as one numpy call over the file reads it; later lines keep their numbers."""
    body = b"eta\n# c\n" + b"0.5\n" * 4094 + b'"0.25\n"\n'
    path = tmp_path / "quoted.csv"
    path.write_bytes(body)
    got = read_samples(path)
    assert got.size == 4095 and got[-1] == 0.25 and np.all(got[:-1] == 0.5)
    path.write_bytes(body + b"abc\n")
    with pytest.raises(DomainError, match=f"{re.escape(str(path))}: line 4099 is not a number$"):
        read_samples(path)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_quoted_cells_over_lines_read_alike_in_any_block(tmp_path, monkeypatch, block):
    path = tmp_path / "quoted.csv"
    path.write_bytes(b'eta\n"0.5\n"# a "comment\n0.25\n"0.125\n "\n0.75\n')
    monkeypatch.setattr(outputs, "_BLOCK", block)
    assert read_samples(path).tolist() == [0.5, 0.25, 0.125, 0.75]


def test_bad_line_after_a_quoted_cell_over_lines_is_named(tmp_path):
    """A quoted cell with a line end inside it is one record, so a bad line
    after it in the same block is the one named, not the cell's first line."""
    path = tmp_path / "quoted.csv"
    path.write_bytes(b'eta\n0.5\n"\n0.25"\nabc\n')
    with pytest.raises(DomainError, match=f"{re.escape(str(path))}: line 5 is not a number$"):
        read_samples(path)


def test_block_rejected_with_no_record_rejected_alone_exits_3(tmp_path, monkeypatch, capsys):
    """A rejected block always holds a record rejected alone; were it not so,
    stats exits 3 with one line instead of quoting numpy's text."""
    path = tmp_path / "eta.csv"
    path.write_bytes(b"eta\n# c\n0.5\n0.25\n")
    load_body = outputs._load_body

    def reject_blocks(lines, max_rows):
        if max_rows > 1:
            list(lines)
            raise ValueError("rejected as a block")
        return load_body(lines, max_rows)

    monkeypatch.setattr(outputs, "_load_body", reject_blocks)
    assert main(["stats", str(path), "--out", str(tmp_path / "stats.json")]) == 3
    assert capsys.readouterr().err == ("numerical failure: numpy's reader rejects 3 lines "
                                       "but none of their records alone\n")


# lines after the header, the number of rows asked for, and then the number
# of lines numpy's reader takes and the values it reads (None: it rejects a row)
TAKES = {
    "blank_and_comments_first": (["# c\n", "\n", "0.5\n", "# d\r\n", "\r\n", "0.25\n", "# e\n", "0.125\n"], 2, 6,
                                 [0.5, 0.25]),
    "quoted_over_line_ends": (['"0.5\n', '\n', '"\n', '"0.25\r\n', '"\r\n', "abc\n"], 2, 5, [0.5, 0.25]),
    "comment_after_last_row": (["0.5\n", "# c\n", "0.25\n"], 1, 1, [0.5]),
    "not_a_number": (["0.5\n", "# c\n", "abc\n", "0.25\n"], 3, 3, None),
    "quoted_not_a_number": (["0.5\n", '"ab\n', '# c"\n', "0.25\n"], 3, 3, None),
    "two_cells": (["0.5\n", "0.5,0.7\n", "0.25\n"], 3, 2, None),
}


@pytest.mark.parametrize("name", sorted(TAKES))
def test_load_body_takes_the_lines_through_its_last_row(name):
    """Given an iterator, numpy's reader takes exactly the lines through its
    last row, or through the row it rejects, and leaves the rest unread: the
    block stream relies on it to find where each record ends."""
    lines, rows, taken, values = TAKES[name]
    rest = iter(lines)
    if values is None:
        with pytest.raises(ValueError):
            outputs._load_body(rest, rows)
    else:
        assert outputs._load_body(rest, rows)[:, 0].tolist() == values
    assert list(rest) == lines[taken:]


# --- the reader of simulate's lines (outputs.read_fractions) -----------------

# within 1e-6 half-ulp of the midpoint between two doubles: read by float()
NEAR_TIES = ("0.672133613041862088", "0.947240748547529543", "0.953473827573125432",
             "0.12840562970864490", "0.942578207828970005")


def midpoint_decimal(v, significant, offset):
    """The decimal of `significant` digits nearest the midpoint between a
    double v in [1e-3, 1) and the next one up, moved by `offset` units in its
    last digit."""
    digits = significant - 1 - math.floor(math.log10(v))
    with localcontext() as ctx:
        ctx.prec = 60  # the midpoint exactly
        midpoint = (Decimal(v) + Decimal(math.nextafter(v, 1.0))) / 2
        return "0." + str(int(midpoint.scaleb(digits).to_integral_value()) + offset).rjust(digits, "0")


def midpoint_decimals():
    """Decimals of 17 or 18 significant digits at and next to midpoints."""
    return st.builds(midpoint_decimal, st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
                     st.sampled_from([17, 18]), st.integers(-2, 2))


def fraction_lines():
    """Lines of read_fractions's form: '%.17g' of doubles in [1e-4, 1), powers
    of two and their neighbours, and decimals at and next to midpoints."""
    powers = [v for j in range(1, 14) for v in (2.0**-j, math.nextafter(2.0**-j, 1.0), math.nextafter(2.0**-j, 0.0))]
    return st.one_of(
        st.floats(min_value=1e-4, max_value=1.0, exclude_max=True).map(lambda v: "%.17g" % v),
        st.floats(min_value=1e-4, max_value=1e-3, exclude_max=True).map(lambda v: "%.17g" % v),  # 18-20 digits
        st.sampled_from(powers).map(lambda v: "%.17g" % v),
        midpoint_decimals(),
        st.sampled_from(NEAR_TIES),
    )


def fraction_file(path, lines, eol, final_eol):
    path.write_bytes(("# metadata: {}" + eol + "eta" + eol + eol.join(lines) + eol * final_eol).encode())


def must_not_load(lines, max_rows):
    raise AssertionError("the numpy reader read a file of read_fractions's form")


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(fraction_lines(), min_size=1, max_size=30), eol=st.sampled_from(["\n", "\r\n"]),
       final_eol=st.booleans(), block=st.sampled_from([1, 5, 24, 100, outputs._READ_BLOCK]))
def test_fraction_reader_matches_csv_float_oracle(tmp_path_factory, lines, eol, final_eol, block):
    """Files of simulate's lines, LF or CRLF, with or without a final line
    end, read bit-identically to float() by read_fractions alone; the small
    blocks put lines across block boundaries."""
    path = tmp_path_factory.mktemp("eta") / "samples.csv"
    fraction_file(path, lines, eol, final_eol)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(outputs, "_load_body", must_not_load)
        mp.setattr(outputs, "_READ_BLOCK", block)
        got = read_samples(path)
    assert hex_values(got) == hex_values(csv_float_reader(path)) == hex_values(map(float, lines))


# lines read_fractions leaves to numpy's reader: a comment, a blank line, a
# number not of the form 0.<digits>, a quoted cell, spaces around a number and
# alone, a word, a byte that is not UTF-8 and a row of two cells
FALLBACK_LINES = (b"# comment", b"", b"1", b'"0.25"', b" 0.5 ", b"   ", b"abc", b"\xff", b"0.25,0.5")


def line_oracle(body: bytes, first: int):
    """What csv.reader and float() read from body line by line, its first
    line being line `first`: the values, else the number of the first line
    that does not decode as UTF-8, has other than one cell or is not a
    number.  Whole-line comments and blank lines are skipped."""
    values = []
    for n, line in enumerate(body.splitlines(), first):
        try:
            text = line.decode()
        except UnicodeDecodeError:
            return n
        if not text or text.startswith("#"):
            continue
        row = next(csv.reader([text]))
        if len(row) != 1:
            return n
        try:
            values.append(float(row[0]))
        except ValueError:
            return n
    return values


@settings(max_examples=200, deadline=None)
@given(head=st.lists(fraction_lines(), min_size=1, max_size=20),
       tail=st.lists(st.one_of(fraction_lines().map(str.encode), st.sampled_from(FALLBACK_LINES)),
                     min_size=1, max_size=12),
       eol=st.sampled_from([b"\n", b"\r\n"]), final_eol=st.booleans(),
       block=st.sampled_from([1, 5, 24, 100]), lines=st.sampled_from([1, 2, 3, outputs._BLOCK]))
def test_reader_seam_matches_line_oracle(tmp_path_factory, head, tail, eol, final_eol, block, lines):
    """Files of simulate's lines followed by lines the kernel leaves to
    numpy's reader, at small kernel and numpy blocks: the doubles of
    csv.reader and float(), or the line number of their first fault."""
    body = eol.join([v.encode() for v in head] + tail) + eol * final_eol
    path = tmp_path_factory.mktemp("eta") / "samples.csv"
    path.write_bytes(b"# metadata: {}" + eol + b"eta" + eol + body)
    want = line_oracle(body, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(outputs, "_READ_BLOCK", block)
        mp.setattr(outputs, "_BLOCK", lines)
        if isinstance(want, int):
            with pytest.raises(DomainError, match=f"{re.escape(str(path))}: line {want} "):
                read_samples(path)
        else:
            assert hex_values(read_samples(path)) == hex_values(csv_float_reader(path)) == hex_values(want)


# comment lines: ASCII, UTF-8 but not ASCII, not UTF-8, and holding a lone
# CR, which text mode splits into two lines: the second a comment, a header
# `eta` (so that the real header is a row), or another header; and ending in
# `eta`, whose tail a head line cut at _HEAD_LINE = 4 bytes must not take for the header
HEAD_COMMENTS = (b"# metadata: {}", "# \u00e9t\u00e9".encode(), b"# \xff\xfe", b"# a\r# b", b"# a\reta", b"# a\rb",
                 b"# c eta")
# headers, None for a file that ends after its comments
HEADERS = (b"eta", b" eta ", b'"eta"', b"eta,x", b"x", b"\xef\xbb\xbfeta", None)


def head_oracle(body: bytes):
    """What csv.reader and float() read from a sample file, split into lines
    as text mode splits them: the values; else its first fault, the number
    of a line that does not decode, has other than one cell or is not a
    number, or "header" if the first line that is not a comment is not `eta`,
    or "empty" if no sample follows it."""
    encoding = io.TextIOWrapper(io.BytesIO()).encoding
    lines = io.TextIOWrapper(io.BytesIO(body), encoding, "surrogateescape", newline="")
    values, header = [], None
    for n, line in enumerate(lines, 1):
        try:
            line.encode(encoding)
        except UnicodeEncodeError:
            return n
        if line.startswith("#"):
            continue
        row = next(csv.reader([line]), [])
        if header is None:
            header = row
            if [h.strip() for h in row] != ["eta"]:
                return "header"
        elif row:
            if len(row) != 1:
                return n
            try:
                values.append(float(row[0]))
            except ValueError:
                return n
    return "header" if header is None else values or "empty"


@settings(max_examples=300, deadline=None)
@given(comments=st.lists(st.sampled_from(HEAD_COMMENTS), max_size=3), header=st.sampled_from(HEADERS),
       lines=st.lists(fraction_lines(), min_size=1, max_size=10), eol=st.sampled_from([b"\n", b"\r\n"]),
       block=st.sampled_from([1, 5, 24, outputs._READ_BLOCK]), head_line=st.sampled_from([4, 8, outputs._HEAD_LINE]))
def test_reader_head_matches_line_oracle(tmp_path_factory, comments, header, lines, eol, block, head_line):
    """Files of 0-3 comment lines and a header, or none, before simulate's
    lines: the doubles of csv.reader and float(), or a DomainError naming the
    first fault, whichever reader (the kernel or numpy's) the head sends the
    file to, a head line longer than _HEAD_LINE included."""
    head = comments + ([header] if header is not None else [])
    body = b"".join(line + eol for line in head)
    if header is not None:
        body += eol.join(line.encode() for line in lines) + eol
    path = tmp_path_factory.mktemp("eta") / "samples.csv"
    path.write_bytes(body)
    want = head_oracle(body)
    faults = {"header": f"expected single-column CSV with header 'eta' in {path}",
              "empty": f"no samples found in {path}"}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(outputs, "_READ_BLOCK", block)
        mp.setattr(outputs, "_HEAD_LINE", head_line)
        if isinstance(want, list):
            assert hex_values(read_samples(path)) == hex_values(want)
        else:
            with pytest.raises(DomainError) as err:
                read_samples(path)
            if isinstance(want, int):
                assert str(err.value).startswith(f"cannot parse samples in {path}: line {want} "), err.value
            else:
                assert str(err.value) == faults[want]


def test_fraction_reader_reads_many_blocks_as_float(tmp_path, monkeypatch):
    """Thousands of lines at and next to midpoints, and '%.17g' samples, over
    several blocks of the real size."""
    rng = np.random.default_rng(7)
    lines = [midpoint_decimal(v, int(rng.integers(17, 19)), int(rng.integers(-2, 3)))
             for v in rng.uniform(1e-3, 1.0, 6000).tolist()]
    lines += ["%.17g" % v for v in rng.uniform(1e-4, 1.0, 8000)] + list(NEAR_TIES)
    fraction_file(tmp_path / "samples.csv", lines, "\r\n", True)
    assert (tmp_path / "samples.csv").stat().st_size > 2 * outputs._READ_BLOCK
    monkeypatch.setattr(outputs, "_load_body", must_not_load)
    got = read_samples(tmp_path / "samples.csv")
    assert hex_values(got) == hex_values(map(float, lines))


def test_fraction_reader_carries_lines_across_blocks(tmp_path, monkeypatch):
    """Every block size from 1 to 30 bytes reads the longest lines (20 digits
    and CRLF) and the shortest."""
    lines = ["0.00012345678901234567", "0.5", "0.00099999999999999991", "0.1", "0.00010000000000000002", "0.5"]
    fraction_file(tmp_path / "samples.csv", lines, "\r\n", False)
    monkeypatch.setattr(outputs, "_load_body", must_not_load)
    for block in range(1, 31):
        monkeypatch.setattr(outputs, "_READ_BLOCK", block)
        assert hex_values(read_samples(tmp_path / "samples.csv")) == hex_values(map(float, lines)), block


def test_nearest_flags_near_ties_and_powers_of_two():
    """_nearest leaves to float() the lines within 1e-6 half-ulp of a tie and
    those whose quotient is a power of two or one ulp above one; every other
    value is float()'s."""
    lines = [*NEAR_TIES, "0.5", "0.25", "%.17g" % math.nextafter(0.5, 1.0), "0.1", "0.75", "0.47045211238372409"]
    x, float_read = outputs._nearest(np.array([int(t[2:]) for t in lines], dtype=np.uint64),
                                     np.array([len(t) - 2 for t in lines]))
    assert float_read.tolist() == list(range(len(NEAR_TIES) + 3))
    assert hex_values(x[float_read.size:]) == hex_values(map(float, lines[float_read.size:]))


def test_flagged_lines_are_read_by_float(tmp_path, monkeypatch):
    """A value _nearest flags is replaced by float() of its line."""
    lines = ["%.17g" % v for v in np.random.default_rng(3).uniform(1e-4, 1.0, 50)]
    fraction_file(tmp_path / "samples.csv", lines, "\n", True)
    monkeypatch.setattr(outputs, "_load_body", must_not_load)
    monkeypatch.setattr(outputs, "_nearest", lambda d, k: (np.full(d.size, np.nan), np.arange(d.size)))
    assert hex_values(read_samples(tmp_path / "samples.csv")) == hex_values(map(float, lines))


# lines after more than one block of sample lines that send a file to numpy's reader
ROUTED = {
    "one": b"1", "integer_part": b"1.3", "exponent": b"3.0517578125e-05", "19_digits": b"0.1234567890123456789",
    "21_digits": b"0.000123456789012345678", "space": b" 0.5", "plus": b"+0.5", "point": b".5",
    "blank": b"", "comment": b"# c", "quoted": b'"0.5"', "nul_in_comment": b"# c\x00",
    "cr_only": b"0.5\r0.25\r0.125",
}


@pytest.mark.parametrize("name", sorted(ROUTED))
def test_other_lines_take_the_numpy_reader(tmp_path, monkeypatch, name):
    path = tmp_path / "samples.csv"
    path.write_bytes(b"# metadata: {}\r\neta\r\n" + BLOCK_OF_LINES + ROUTED[name] + b"\r\n0.75\r\n")
    opened, calls = record_reads(monkeypatch)
    got = read_samples(path)
    assert_single_pass(opened, calls, path)
    assert hex_values(got) == hex_values(csv_float_reader(path))


def test_numpy_reader_resumes_where_the_kernel_stops(tmp_path, monkeypatch):
    """At every block size from 1 to 30 bytes, numpy's reader goes on from the
    first line of the block that the kernel leaves: a `1` among kernel lines
    reads as csv.reader and float() read it, and an `abc` is named."""
    lines = ["0.00012345678901234567", "0.5", "0.1", "1", "0.25", "0.00099999999999999991", "0.5"]
    one, abc = tmp_path / "one.csv", tmp_path / "abc.csv"
    fraction_file(one, lines, "\r\n", False)
    fraction_file(abc, ["abc" if line == "1" else line for line in lines], "\r\n", False)
    for block in range(1, 31):
        monkeypatch.setattr(outputs, "_READ_BLOCK", block)
        assert hex_values(read_samples(one)) == hex_values(csv_float_reader(one)), block
        with pytest.raises(DomainError, match=f"^cannot parse samples in {re.escape(str(abc))}: line 6 is not a number$"):
            read_samples(abc)


@pytest.mark.parametrize("head", [
    b"# metadata: \xc3\xa9\r\neta\r\n",  # a comment that is not ASCII
    b"# a\r# b\r\neta\r\n",               # two comments, the first ending in CR
    b"eta \r\n",
    b'"eta"\n',
])
def test_other_heads_take_the_numpy_reader(tmp_path, monkeypatch, head):
    path = tmp_path / "samples.csv"
    path.write_bytes(head + b"0.5\r\n0.25\r\n")
    calls = []
    load_body = outputs._load_body
    monkeypatch.setattr(outputs, "_load_body", lambda lines, max_rows: calls.append(1) or load_body(lines, max_rows))
    assert hex_values(read_samples(path)) == [0.5.hex(), 0.25.hex()]
    assert calls


# --- the sample stream into the moments (channel.read_eta_csv) --------------

def moments_hex(stats):
    return stats.mean_eta.hex(), stats.mean_sqrt_eta.hex()


def simulate_text(samples) -> str:
    """A sample file of samples in [1e-4, 1) as simulate writes it."""
    return outputs.render_csv({}, ["eta"], [np.asarray(samples, dtype=float)])


# simulate's text as such, which the kernel reads, and with a change that
# takes its body to numpy's reader: a comment line or a blank line after the
# header, a last line `1`, or every CRLF a lone CR, which also takes its head
# to the text route; and the samples each file then holds
ROUTES = {
    "kernel": (lambda text: text, lambda a: a),
    "lone_cr": (lambda text: text.replace("\r\n", "\r"), lambda a: a),
    "comment": (lambda text: text.replace("\r\neta\r\n", "\r\neta\r\n# a comment\r\n", 1), lambda a: a),
    "blank": (lambda text: text.replace("\r\neta\r\n", "\r\neta\r\n\r\n", 1), lambda a: a),
    "last_one": (lambda text: text + "1\r\n", lambda a: np.append(a, 1.0)),
}
FILE_SIZES = [*range(401), *(m * channel._LEAF + d for m in (1, 2, 8) for d in (-1, 1)), 99_999]


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_sample_file_has_the_bits_of_its_array(tmp_path, route):
    """The moments of a file, read a block at a time, are fading_stats of its
    samples bit for bit, at every size to 400 and next to leaf multiples."""
    edit, held = ROUTES[route]
    samples = np.random.default_rng(25).uniform(1e-4, 1.0, max(FILE_SIZES))
    path = tmp_path / "eta.csv"
    for n in FILE_SIZES:
        path.write_bytes(edit(simulate_text(samples[:n])).encode())
        a = held(samples[:n])
        if not a.size:
            with pytest.raises(DomainError, match="^no samples found in "):
                read_eta_csv(path)
            continue
        st_, count = read_eta_csv(path)
        assert count == a.size, n
        assert moments_hex(st_) == moments_hex(fading_stats(a)) == moments_hex(fading_stats(read_samples(path))), n


@pytest.fixture(scope="module")
def million_samples():
    return np.random.default_rng(26).uniform(1e-4, 1.0, 1_000_000)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_stats_streams_a_million_samples_in_under_1_mb(tmp_path, million_samples, route):
    """`stats` on 1e6 samples holds no array of them on either reader's
    route (an array alone would be 8 MB), and writes fading_stats of the
    samples bit for bit."""
    edit, held = ROUTES[route]
    path, out = tmp_path / "eta.csv", tmp_path / "stats.json"
    path.write_bytes(edit(simulate_text(million_samples)).encode())
    tracemalloc.start()
    try:
        assert main(["stats", str(path), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    a = held(million_samples)
    st_ = fading_stats(a)
    assert json.loads(out.read_text()) == {"mean_eta": st_.mean_eta, "mean_sqrt_eta": st_.mean_sqrt_eta,
                                           "var_sqrt": st_.var_sqrt, "n_samples": a.size}


@pytest.mark.parametrize("body, fault", [
    (b"eta\n0.5\n1.5\nabc\n", "must lie in [0, 1]: sample 1 (from 0) is 1.5"),
    (b'eta\n"0.5\n"\n-1\n"abc\n"\n', "must lie in [0, 1]: sample 1 (from 0) is -1.0"),
    (b"eta\r\n" + BLOCK_OF_LINES + b"1.5\r\n" + b"0.5\r\n" * 5000 + b"abc\r\n", "sample 7000 (from 0) is 1.5"),
    (b"eta\n" + b"0.5\n" * 5000 + b"nan\n0.5,0.25\n", "sample 5000 (from 0) is nan"),
    (b"eta\n0.5\nabc\n1.5\n", "line 3 is not a number"),
    (b"eta\n0.5\n1.5,0.25\n1.5\n", "line 3 has 2 cells, expected one"),
], ids=["range_then_word", "range_then_quoted_word", "range_then_word_blocks_later",
        "range_then_two_cells_in_a_block", "word_then_range", "two_cells_then_range"])
def test_first_fault_in_file_order_is_named(tmp_path, body, fault):
    """A sample outside [0, 1] before a line that does not parse is the
    fault the moments name, in one numpy block or blocks before it, and the
    other way round; the block stream alone, which checks no range, names
    the line."""
    path = tmp_path / "eta.csv"
    path.write_bytes(body)
    with pytest.raises(DomainError) as err:
        read_eta_csv(path)
    assert str(err.value).endswith(fault), err.value
    with pytest.raises(DomainError, match=f"^cannot parse samples in {re.escape(str(path))}: line "):
        read_samples(path)


def record_oracle(body: str, first: int):
    """What csv.reader and float() read from body, whose first line is line
    `first`: the values, else the line on which the first record that is not
    one number starts.  Blank lines are skipped; a quoted cell may hold line
    ends."""
    reader = csv.reader(io.StringIO(body, newline=""))
    values, start = [], first
    for row in reader:
        if row:
            try:
                (cell,) = row
                values.append(float(cell))
            except ValueError:
                return start
        start = first + reader.line_num
    return values


# what goes around a number inside its quotes; EOL stands for the file's line end
QUOTE_PADS = ("", "EOL", " EOL", "EOLEOL", "EOL ", " ")
FAULTS = ("abc", "0.5,0.25", '"EOLabc"', '"0.5EOL",1')


@settings(max_examples=300, deadline=None)
@given(head=st.lists(fraction_lines(), max_size=12),
       cells=st.lists(st.tuples(fraction_lines(), st.sampled_from(QUOTE_PADS), st.sampled_from(QUOTE_PADS),
                                st.booleans()), min_size=1, max_size=14),
       fault=st.one_of(st.none(), st.tuples(st.sampled_from(FAULTS), st.integers(0, 14))),
       eol=st.sampled_from(["\n", "\r\n"]), block=st.sampled_from([1, 5, 24, 100]),
       lines=st.sampled_from([1, 2, 3, 5, outputs._BLOCK]))
def test_quoted_cells_over_line_ends_match_record_oracle(tmp_path_factory, head, cells, fault, eol, block,
                                                         lines):
    """Files of simulate's lines, then numbers plain and quoted, quotes that
    hold line ends before or after the number, and maybe one faulty record,
    at small kernel and numpy blocks, so that quoted cells cross block
    boundaries: the stream holds the doubles of csv.reader and float(), or
    names the line on which their first faulty record starts."""
    records = [f'"{pre}{text}{post}"'.replace("EOL", eol) if quoted else text for text, pre, post, quoted in cells]
    if fault is not None:
        records.insert(min(fault[1], len(records)), fault[0].replace("EOL", eol))
    body = eol.join(head + records) + eol
    path = tmp_path_factory.mktemp("eta") / "samples.csv"
    path.write_bytes(f"# metadata: {{}}{eol}eta{eol}{body}".encode())
    want = record_oracle(body, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(outputs, "_READ_BLOCK", block)
        mp.setattr(outputs, "_BLOCK", lines)
        if isinstance(want, int):
            for read in (read_samples, read_eta_csv):
                with pytest.raises(DomainError, match=f"^cannot parse samples in {re.escape(str(path))}: line {want} "):
                    read(path)
        else:
            assert hex_values(read_samples(path)) == hex_values(want)
            st_, count = read_eta_csv(path)
            assert count == len(want) and moments_hex(st_) == moments_hex(fading_stats(want))
