import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hex_values, sample_values
from cvfade.channel import (
    CompositeChannel,
    FadingStats,
    apply_composite,
    apply_equivalent_fixed,
    fading_stats,
    read_eta_csv,
)
from cvfade.errors import DomainError, NonPhysicalState
from cvfade.gaussian import symplectic_eigenvalues
from cvfade.sources import ProtocolParams, build_source


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
    fixed = FadingStats.fixed(stats.mean_sqrt_eta**2)
    fading_out = apply_equivalent_fixed(src, CompositeChannel(fading=stats, eta1=eta1))
    fixed_out = apply_equivalent_fixed(src, CompositeChannel(fading=fixed, eta1=eta1))
    return np.diag(fading_out.mode_block(src.n_modes - 1) - fixed_out.mode_block(src.n_modes - 1))


class TestEffectiveExcessNoise:
    """Fading adds eta_comb Var(sqrt(eta)) (V_q - 1) to each signal quadrature."""

    def test_formula(self):
        st_ = FadingStats(0.5, math.sqrt(0.49))
        assert st_.var_sqrt == pytest.approx(0.01)
        noise = fading_noise(ProtocolParams(v_s=1.0, v_m=1.0, b=1), st_, eta1=0.8)  # V_q = 2
        assert noise == pytest.approx([0.008, 0.008], rel=1e-9)

    def test_no_fading(self):
        noise = fading_noise(ProtocolParams(v_s=1.0, v_m=4.0, b=1), FadingStats.fixed(0.8))
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
        good = FadingStats.fixed(0.5)
        with pytest.raises(DomainError):
            CompositeChannel(fading=good, eta1=0.0)
        with pytest.raises(DomainError):
            CompositeChannel(fading=good, eps2=-0.1)


class TestApplyComposite:
    def test_identity_channel(self):
        src = build_source(ProtocolParams(v_s=0.5, v_m=1.5, b=0))
        out = apply_composite(src, CompositeChannel(fading=FadingStats.fixed(1.0)))
        assert np.allclose(out.matrix, src.matrix, atol=1e-12)

    def test_pure_fading_no_fluctuations(self):
        src = build_source(ProtocolParams(v_s=0.5, v_m=1.5, b=0))
        out = apply_composite(src, CompositeChannel(fading=FadingStats.fixed(0.5)))
        assert np.allclose(out.mode_block(1), 1.5 * np.eye(2), atol=1e-12)
        assert np.allclose(
            out.cross_block(0, 1), math.sqrt(0.5) * src.cross_block(0, 1), atol=1e-12
        )

    def test_fluctuations_only_touch_correlations(self):
        src = build_source(ProtocolParams(v_s=0.5, v_m=1.5, b=0))
        out = apply_composite(src, CompositeChannel(fading=FadingStats(0.5, 0.69)))
        assert np.allclose(out.mode_block(1), 1.5 * np.eye(2), atol=1e-12)
        assert np.allclose(out.cross_block(0, 1), 0.69 * src.cross_block(0, 1), atol=1e-12)

    def test_monotone_decorrelation_in_fading_strength(self):
        src = build_source(ProtocolParams(v_s=0.5, v_m=1.5, b=0))
        corr = []
        for var in (0.0, 0.01, 0.03, 0.05):
            st_ = FadingStats(0.5, math.sqrt(0.5 - var))
            out = apply_composite(src, CompositeChannel(fading=st_))
            corr.append(abs(out.cross_block(0, 1)[0, 0]))
            assert np.allclose(out.mode_block(1), 1.5 * np.eye(2), atol=1e-12)
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
    arr = read_eta_csv(p)
    assert np.array_equal(arr, [0.5, 0.25])
    bad = tmp_path / "bad.csv"
    bad.write_text("transmittance\n0.5\n")
    with pytest.raises(DomainError):
        read_eta_csv(bad)


# --- the eta sample file against the reader it replaced ----------------------

def csv_float_reader(path):
    """The row-at-a-time reader (csv.reader plus float) that read_eta_csv
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
    got = read_eta_csv(path)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == (len(values),)
    assert hex_values(got) == hex_values(csv_float_reader(path)) == hex_values(values)


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
])
def test_reader_rejects_malformed_files(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_bytes(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning leaks out of the reader
        with pytest.raises(DomainError):
            read_eta_csv(path)
