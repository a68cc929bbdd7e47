#!/usr/bin/env python3
"""Compare the CLI's outputs at a git revision with those of the working tree.

    python scripts/diff_outputs.py REV

Unpacks REV with `git archive` into a temporary directory and runs the shipped
commands below with --jobs 1 on both source trees, each tree with its own
scenario files:

  sweep --trace     on fig3, fig3_text, fig1b and perfbench/fading_sweep.scenario
  daily             on prague-like.csv x fig2b_caption and fig2b_text
  keyrate --trace   and optimize --trace on fig3
  keyrate, optimize and sweep --trace on four scenarios generated in the
                    temporary directory: two set every optional key, each
                    to a value other than its default in at least one
                    variant, in linear and in dB forms; the third sweeps a
                    coherent and a trusted-ancilla squeezed variant over
                    v_m up to 1e5 on a lossless noiseless channel, whose
                    near-pure states test the spectrum's nu >= 1 check; the
                    fourth gives every channel key as a JSON integer and
                    sweeps var_sqrt
  sweep --trace     over block_size, log-spaced from 1e3 to 1e9, on a
                    scenario generated in the temporary directory with an
                    optimized squeezed, an optimized coherent and a fixed
                    variant; at 1e3 the penalty Delta(n), about 1.3 bits,
                    leaves no positive rate, so its rows carry
                    no_positive_rate
  keyrate --trace   and sweep --trace over distance on two beam links
                    generated in the temporary directory: one with tracking,
                    where r0 = 0 at every node of the moments' rule, and one
                    with a 2 mm aperture, a / w0 = 0.05
  simulate --n 100000 on fig3, then stats on its output, which the sample
                    lines' reader reads, and on copies of it: with a comment
                    line and a blank line after the header, which numpy's
                    reads; with a last line `1`, where numpy's reader
                    resumes in the sample lines' reader's last block; with
                    a last line `abc`, which is rejected; with a line that
                    is not UTF-8 after the first 64 KB, also rejected;
                    without its last line, 99 999 samples, a count that is
                    not a multiple of 8, so that a change in the order of
                    the moments' sums shows in their last bits; and four
                    whose records numpy's reader ends: every cell quoted; a
                    comment line after the header and a quoted cell over
                    lines 4096-4097 of the body numpy reads, the first
                    block's end; a comment line and a blank line before a
                    last line `abc`; and a quoted cell over a line end
                    before a last line `abc`; and two whose head the
                    sample lines' reader leaves to the text route: every
                    CRLF replaced by a lone CR, and a comment line holding
                    a lone CR (`# a<CR># b`) before the header
  keyrate --trace   on a scenario generated in the temporary directory whose
                    fading segment is simulate's output as a samples_file
  sweep --trace     over a fading variable whose section the scenario lacks,
                    which exits 2: distance on a stats scenario, var_sqrt on
                    a beam link and var_sqrt on the samples_file scenario
  simulate --n 1 and --n 16384 on fig3: one partial generator chunk and an
                    exact multiple of the 8192-sample chunk (--n 100000
                    ends in a partial one); then stats on each, one sample
                    and exactly two 8192-sample leaves of the moments' sums
  keyrate --trace   and simulate --n 20000 on two beam links generated in
                    the temporary directory, then stats on each output: a
                    calm link (sigma_R^2 = 0), where the spot is circular in
                    every sample and at every node, so each z of the
                    centred-beam term takes its small branch, where the
                    infinite G is replaced; and a link with a 5 cm aperture
                    (a / w0 = 1.25), which sends 172 rule nodes and 48
                    samples' Bessel arguments past the series cutoff, to
                    the asymptotic expansion
  daily             on prague-like.csv x two beam links generated in the
                    temporary directory: one without distance, which daily
                    puts at 2200 m, and one with sigma_r2, which it rejects
  simulate, daily   and sweep --trace on scenarios that lack the section the
                    command needs, each exiting 2: simulate and daily on the
                    first stats scenario above, sweep on it without its
                    sweep section
  keyrate           on six scenarios generated in the temporary directory
                    that the schema rejects, each with one fault: a wrong
                    type, an out-of-bound number, a bad enum value, an
                    unknown key, a missing required key and a key given
                    twice; each exits 2 with its validation message

Every file a command writes, its stderr and its exit code are compared.  One
line per output says "identical" or names the first differing line; the exit
code is 1 on any difference.  Nothing is written inside the repository.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWEEPS = {
    "fig3": "scenarios/fig3.scenario",
    "fig3_text": "scenarios/fig3_text.scenario",
    "fig1b": "scenarios/fig1b.scenario",
    "fading_sweep": "perfbench/fading_sweep.scenario",
}
# copies of simulate's eta.csv, each changed in one way
COMMENTED = "eta_commented.csv"  # a comment line and a blank line after the header
LAST_ONE = "eta_one.csv"  # a last line `1`
REJECTED = "eta_abc.csv"  # a last line `abc`
NOT_UTF8 = "eta_not_utf8.csv"  # a line of bytes that are not UTF-8 after the first 64 KB
SHORT = "eta_short.csv"  # without its last line
QUOTED = "eta_quoted.csv"  # every cell quoted
QUOTE_AT_BLOCK = "eta_quote_at_block.csv"  # a comment line, and a quoted cell over body lines 4096-4097
COMMENT_BEFORE_ABC = "eta_comment_abc.csv"  # a comment line and a blank line before a last line `abc`
QUOTE_BEFORE_ABC = "eta_quote_abc.csv"  # a quoted cell over a line end before a last line `abc`
LONE_CR = "eta_lone_cr.csv"  # every CRLF replaced by a lone CR
CR_IN_COMMENT = "eta_cr_in_comment.csv"  # a comment line holding a lone CR before the header

# two scenarios that set every optional key, each to a value other than its default in some
# variant, one of near-pure states and one whose channel keys are integers
GENERATED = {
    "all_keys_linear": {
        "description": "every optional key, linear forms",
        "seed": 7,
        "protocols": [
            {"label": "sq", "family": "squeezed", "v_s": 0.4, "v_m": 5.0, "v_an": 0.3,
             "prep_noise_trust": "untrusted", "reconciliation": "dr", "beta": 0.93, "sifting": 0.8,
             "optimizer": {"vs_cap_db": -6.0, "vm_max": 40.0, "grid": [5, 6], "tolerance": 1e-4,
                           "optimize_vs": False}},
            {"label": "coh", "family": "coherent", "v_s": 1.0, "v_m": 4.0, "v_an": 0.0,
             "reconciliation": "dr", "beta": 0.95, "sifting": 0.9,
             "optimizer": {"vm_max": 30.0, "grid": [3, 7], "tolerance": 1e-5, "optimize_vs": False}},
        ],
        "channel": {"eta1": 0.95, "eta2": 0.97, "eps1": 0.002, "eps2": 0.004, "eps_atm": 0.001,
                    "fading": {"stats": {"mean_eta": 0.9, "mean_sqrt_eta": 0.945}}},
        "finite_size": {"n": 1e9, "eps_bar": 1e-9, "key_fraction": 0.9},
        "sweep": {"variable": "v_s", "start": 0.3, "stop": 0.9, "steps": 3, "spacing": "log"},
        "daily": {"n_samples": 10},
    },
    "all_keys_db": {
        "description": "every optional key, dB forms",
        "seed": 8,
        "protocols": [
            {"label": "sq_db", "family": "squeezed", "v_s_db": -3.0, "v_m": 6.0, "v_an_db": 0.2,
             "prep_noise_trust": "untrusted", "reconciliation": "dr", "beta": 0.9, "sifting": 0.7,
             "optimizer": {"vs_cap_db": -7.0, "vm_max": 25.0, "grid": [4, 5], "tolerance": 1e-4,
                           "optimize_vs": False}},
            {"label": "sq_free", "family": "squeezed", "v_s_db": -2.0, "v_m": 3.0, "v_an_db": 1.0,
             "optimizer": {"vs_cap_db": -8.0, "vm_max": 20.0, "grid": [4, 4], "tolerance": 1e-3}},
        ],
        "channel": {"eta1_db": -0.2, "eta2_db": -0.1, "eps1": 0.003, "eps2": 0.002, "eps_atm": 0.001,
                    "fading": {"stats": {"mean_eta_db": -0.4, "var_sqrt": 0.005}}},
        "finite_size": {"n": 1e8, "eps_bar": 1e-8, "key_fraction": 0.8},
        "sweep": {"variable": "var_sqrt", "values": [0.0, 0.002, 0.01]},
        "daily": {"n_samples": 20},
    },
    "near_pure": {
        "description": "near-pure states: v_m up to 1e5 on <eta> = 1, eps2 = 0",
        "protocols": [
            {"label": "coh", "family": "coherent", "v_m": 1000.0},
            {"label": "sq_an", "family": "squeezed", "v_s": 0.5, "v_m": 1000.0, "v_an": 1.0,
             "prep_noise_trust": "trusted"},
        ],
        "channel": {"fading": {"stats": {"mean_eta": 1.0}}},
        "sweep": {"variable": "v_m", "start": 100.0, "stop": 1e5, "steps": 13, "spacing": "log"},
    },
    "integer_channel": {
        "description": "every channel key a JSON integer",
        "protocols": [
            {"label": "coh", "family": "coherent", "v_m": 4.0, "optimizer": {"vm_max": 30.0, "grid": [3, 7]}},
            {"label": "sq", "family": "squeezed", "v_s_db": -3.0, "v_m": 5.0,
             "optimizer": {"vs_cap_db": -6.0, "vm_max": 25.0, "grid": [4, 5]}},
        ],
        "channel": {"eta1": 1, "eta2": 1, "eps1": 0, "eps2": 0, "eps_atm": 0,
                    "fading": {"stats": {"mean_eta": 0.5}}},
        "finite_size": {"n": 1e8},
        "sweep": {"variable": "var_sqrt", "values": [0.0, 0.01, 0.05]},
    },
}


# optimized and fixed variants over block sizes, each point with its own
# FiniteSizeParams; Delta(1e3) is about 1.3 bits
BLOCK_SIZE = {
    "description": "block_size sweep: optimized squeezed and coherent variants and a fixed one",
    "protocols": [
        {"label": "sq_opt", "family": "squeezed", "beta": 0.95,
         "optimizer": {"vs_cap_db": -6.0, "vm_max": 30.0, "grid": [5, 7]}},
        {"label": "coh_opt", "family": "coherent", "beta": 0.95, "optimizer": {"vm_max": 30.0, "grid": [3, 7]}},
        {"label": "sq_fixed", "family": "squeezed", "v_s_db": -3.0, "v_m": 5.0, "beta": 0.95},
    ],
    "channel": {"eta1_db": -2.0, "eps2": 0.01, "fading": {"stats": {"mean_eta": 0.6, "var_sqrt": 0.005}}},
    "finite_size": {"n": 1e6, "key_fraction": 0.9},
    "sweep": {"variable": "block_size", "start": 1e3, "stop": 1e9, "steps": 7, "spacing": "log"},
}


# two beam links on which the rule's spot and aperture stages part: tracking
# (r0 = 0 at every node) and a 2 mm aperture (a / w0 = 0.05); each is run
# through keyrate --trace and a distance sweep --trace
BEAM_LINK = {"wavelength": 1.55e-6, "w0": 0.04, "aperture": 0.02, "distance": 1750.0, "sigma_r2": 0.56}
BEAM_GENERATED = {
    name: {
        "description": f"beam link, {name}",
        "protocols": [
            {"label": "coherent", "family": "coherent", "beta": 0.95,
             "optimizer": {"vm_max": 50.0, "grid": [5, 5]}},
            {"label": "squeezed", "family": "squeezed", "v_s_db": -3.0, "v_m": 8.0, "beta": 0.95},
        ],
        "channel": {"eta1_db": -2.0, "eps2": 0.01, "fading": {"beam": {**BEAM_LINK, **beam}}},
        "finite_size": {"n": 1e8},
        "sweep": {"variable": "distance", "start": 250.0, "stop": 3250.0, "steps": 7},
    }
    for name, beam in (("beam_tracking", {"tracking": True}), ("beam_narrow_aperture", {"aperture": 0.002}))
}

# a calm link, W1 = W2 in every sample, and a 5 cm aperture, whose Bessel
# arguments reach the asymptotic expansion; each is run through keyrate
# --trace, simulate --n 20000 and stats
BEAM_SAMPLED = {
    f"beam_{name}": {**BEAM_GENERATED["beam_tracking"], "description": f"beam link, {name}",
                     "channel": {"eta1_db": -2.0, "eps2": 0.01, "fading": {"beam": {**BEAM_LINK, **beam}}}}
    for name, beam in (("calm", {"sigma_r2": 0.0}), ("wide_aperture", {"aperture": 0.05}))
}

# the first generated scenario with simulate's output as its fading segment
SAMPLES_FILE = {**GENERATED["all_keys_linear"], "description": "fading from simulate's samples",
                "channel": {**GENERATED["all_keys_linear"]["channel"], "fading": {"samples_file": "eta.csv"}}}

# sweeps over a fading variable whose section the scenario lacks
MISSING_SECTION = {
    "stats_over_distance": {**GENERATED["all_keys_linear"],
                            "sweep": {"variable": "distance", "values": [500.0, 1000.0]}},
    "beam_over_var_sqrt": {**BEAM_GENERATED["beam_tracking"], "sweep": {"variable": "var_sqrt", "values": [0.0, 0.01]}},
    "samples_file_over_var_sqrt": {**SAMPLES_FILE, "sweep": {"variable": "var_sqrt", "values": [0.0, 0.01]}},
}

# daily on a beam link without distance (2200 m) and on one that fixes its
# turbulence; sweep on a scenario without a sweep section
DAILY_LINK = {"wavelength": 1.55e-6, "w0": 0.04, "aperture": 0.02}
COMMAND_SECTIONS = {
    "daily_no_distance": {**BEAM_GENERATED["beam_tracking"], "description": "daily's beam link at 2200 m",
                          "channel": {"eta1_db": -2.0, "eps2": 0.01, "fading": {"beam": DAILY_LINK}}},
    "daily_sigma_r2": {**BEAM_GENERATED["beam_tracking"], "description": "daily's beam link, fixed turbulence",
                       "channel": {"eta1_db": -2.0, "eps2": 0.01,
                                   "fading": {"beam": {**DAILY_LINK, "sigma_r2": 0.56}}}},
    "no_sweep": {key: value for key, value in GENERATED["all_keys_linear"].items() if key != "sweep"},
}

# scenario texts that the schema rejects, one fault each
VALID = {"protocol": {"family": "coherent", "v_m": 3.0}, "channel": {"fading": {"stats": {"mean_eta": 0.5}}}}


def with_keys(section, **keys):
    return json.dumps({**VALID, section: {**VALID[section], **keys}})


MALFORMED = {
    "wrong_type": with_keys("protocol", beta="high"),
    "out_of_bound": with_keys("protocol", beta=1.5),
    "bad_enum": with_keys("protocol", family="thermal"),
    "unknown_key": with_keys("channel", eta3=0.5),
    "missing_required": json.dumps({**VALID, "channel": {"eta1": 0.5}}),
    # json.dumps cannot write a key twice
    "duplicate_key": '{"protocol": {"family": "coherent", "v_m": 3.0, "v_m": 4.0}, '
                     '"channel": {"fading": {"stats": {"mean_eta": 0.5}}}}',
}


def commands():
    """(name, argv) per run; {tree} stands for the source tree's root."""
    runs = [(f"sweep_{name}", ["sweep", "--config", "{tree}/" + path, "--out", f"sweep_{name}.csv", "--trace"])
            for name, path in SWEEPS.items()]
    runs += [(f"daily_{name}", ["daily", "{tree}/scenarios/prague-like.csv", "--config",
                                f"{{tree}}/scenarios/{name}.scenario", "--out", f"daily_{name}.csv"])
             for name in ("fig2b_caption", "fig2b_text")]
    runs += [(f"{command}_fig3", [command, "--config", "{tree}/scenarios/fig3.scenario",
                                  "--out", f"{command}_fig3.csv", "--trace"])
             for command in ("keyrate", "optimize")]
    runs += [(f"{command}_{name}", [command, "--config", f"{name}.scenario",
                                    "--out", f"{command}_{name}.csv", "--trace"])
             for name in GENERATED for command in ("keyrate", "optimize", "sweep")]
    runs.append(("sweep_block_size", ["sweep", "--config", "block_size.scenario", "--out", "sweep_block_size.csv",
                                      "--trace"]))
    runs += [(f"{command}_{name}", [command, "--config", f"{name}.scenario",
                                    "--out", f"{command}_{name}.csv", "--trace"])
             for name in BEAM_GENERATED for command in ("keyrate", "sweep")]
    runs.append(("simulate_fig3", ["simulate", "--config", "{tree}/scenarios/fig3.scenario",
                                   "--n", "100000", "--out", "eta.csv"]))
    runs.append(("stats_eta", ["stats", "eta.csv", "--out", "stats.json"]))
    runs += [(f"stats_{Path(copy).stem}", ["stats", copy, "--out", f"stats_{Path(copy).stem}.json"])
             for copy in (COMMENTED, LAST_ONE, REJECTED, NOT_UTF8, SHORT, QUOTED, QUOTE_AT_BLOCK,
                          COMMENT_BEFORE_ABC, QUOTE_BEFORE_ABC, LONE_CR, CR_IN_COMMENT)]
    runs.append(("keyrate_samples_file", ["keyrate", "--config", "samples_file.scenario",
                                          "--out", "keyrate_samples_file.csv", "--trace"]))
    runs += [(f"sweep_{name}", ["sweep", "--config", f"{name}.scenario", "--out", f"sweep_{name}.csv", "--trace"])
             for name in MISSING_SECTION]
    runs += [(f"simulate_fig3_{n}", ["simulate", "--config", "{tree}/scenarios/fig3.scenario",
                                     "--n", str(n), "--out", f"eta_{n}.csv"])
             for n in (1, 16384)]
    runs += [(f"stats_eta_{n}", ["stats", f"eta_{n}.csv", "--out", f"stats_eta_{n}.json"]) for n in (1, 16384)]
    for name in BEAM_SAMPLED:
        short = name.removeprefix("beam_")
        runs += [(f"keyrate_{name}", ["keyrate", "--config", f"{name}.scenario", "--out", f"keyrate_{name}.csv",
                                      "--trace"]),
                 (f"simulate_{name}", ["simulate", "--config", f"{name}.scenario", "--n", "20000",
                                       "--out", f"eta_{short}.csv"]),
                 (f"stats_eta_{short}", ["stats", f"eta_{short}.csv", "--out", f"stats_eta_{short}.json"])]
    runs += [(name, ["daily", "{tree}/scenarios/prague-like.csv", "--config", f"{name}.scenario",
                     "--out", f"{name}.csv"])
             for name in ("daily_no_distance", "daily_sigma_r2")]
    runs += [("simulate_all_keys_linear", ["simulate", "--config", "all_keys_linear.scenario",
                                           "--n", "100", "--out", "eta_all_keys_linear.csv"]),
             ("daily_all_keys_linear", ["daily", "{tree}/scenarios/prague-like.csv", "--config",
                                        "all_keys_linear.scenario", "--out", "daily_all_keys_linear.csv"]),
             ("sweep_no_sweep", ["sweep", "--config", "no_sweep.scenario", "--out", "sweep_no_sweep.csv",
                                 "--trace"])]
    runs += [(f"keyrate_malformed_{name}", ["keyrate", "--config", f"malformed_{name}.scenario",
                                            "--out", f"keyrate_malformed_{name}.csv"])
             for name in MALFORMED]
    return runs


def sample_copies(out: Path):
    """The copies of eta.csv that stats reads besides eta.csv itself."""
    text = (out / "eta.csv").read_bytes()
    head, header, body = text.split(b"\r\n", 2)
    (out / COMMENTED).write_bytes(b"\r\n".join([head, header, b"# a comment", b"", body]))
    (out / LAST_ONE).write_bytes(text + b"1\r\n")
    (out / REJECTED).write_bytes(text + b"abc\r\n")
    cut = text.index(b"\r\n", 1 << 16) + 2
    (out / NOT_UTF8).write_bytes(text[:cut] + b"\xff\xfe\r\n" + text[cut:])
    (out / SHORT).write_bytes(text[:text.rindex(b"\r\n", 0, -2) + 2])
    lines = body.split(b"\r\n")[:-1]
    (out / QUOTED).write_bytes(b"".join(line + b"\r\n" for line in [head, header, *(b'"%s"' % v for v in lines)]))
    # numpy's body starts at the comment line, so body line 4096 is sample line 4095
    lines[4094] = b'"' + lines[4094] + b'\r\n"'
    (out / QUOTE_AT_BLOCK).write_bytes(b"\r\n".join([head, header, b"# a comment", *lines, b""]))
    (out / COMMENT_BEFORE_ABC).write_bytes(text + b"# a comment\r\n\r\nabc\r\n")
    (out / QUOTE_BEFORE_ABC).write_bytes(text + b'"0.5\r\n"\r\nabc\r\n')
    (out / LONE_CR).write_bytes(text.replace(b"\r\n", b"\r"))
    (out / CR_IN_COMMENT).write_bytes(b"\r\n".join([head, b"# a\r# b", header, body]))


def run_all(tree: Path, out: Path):
    """Run every command on `tree` with `out` as the working directory."""
    out.mkdir()
    for name, doc in {**GENERATED, "block_size": BLOCK_SIZE, **BEAM_GENERATED, **BEAM_SAMPLED,
                      "samples_file": SAMPLES_FILE, **MISSING_SECTION, **COMMAND_SECTIONS}.items():
        (out / f"{name}.scenario").write_text(json.dumps(doc, indent=1))
    for name, text in MALFORMED.items():
        (out / f"malformed_{name}.scenario").write_text(text)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    for name, argv in commands():
        argv = [a.replace("{tree}", str(tree)) for a in argv]
        if argv[0] == "stats" and not (out / COMMENTED).exists() and (out / "eta.csv").exists():
            sample_copies(out)
        if argv[0] != "stats":
            argv += ["--jobs", "1"]
        proc = subprocess.run([sys.executable, "-m", "cvfade", *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        (out / f"{name}.stderr").write_text(proc.stderr)
        (out / f"{name}.exit").write_text(f"{proc.returncode}\n")
        print(f"  {tree.name}: {name} exit {proc.returncode}", file=sys.stderr)


def first_difference(a: bytes, b: bytes) -> str | None:
    if a == b:
        return None
    left, right = a.split(b"\n"), b.split(b"\n")
    for i, (x, y) in enumerate(zip(left, right)):
        if x != y:
            return f"line {i + 1}: {x[:120]!r} != {y[:120]!r}"
    return f"line {min(len(left), len(right)) + 1}: one side ends ({len(left)} vs {len(right)} lines)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cvfade-diff-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.rev],
                                 capture_output=True, check=True).stdout
        rev_tree = tmp / "rev"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # the "data" filter exists from Python 3.10.12 and 3.11.4 on
            tar.extractall(rev_tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        run_all(rev_tree, tmp / "out_rev")
        run_all(ROOT, tmp / "out_tree")
        names = sorted({p.name for p in (tmp / "out_rev").iterdir()} | {p.name for p in (tmp / "out_tree").iterdir()})
        differ = 0
        for name in names:
            at_rev, here = tmp / "out_rev" / name, tmp / "out_tree" / name
            if not (at_rev.exists() and here.exists()):
                verdict = f"only {'at ' + args.rev if at_rev.exists() else 'in the working tree'}"
            else:
                verdict = first_difference(at_rev.read_bytes(), here.read_bytes()) or "identical"
            differ += verdict != "identical"
            print(f"{name}: {verdict}")
    print(f"{len(names) - differ} of {len(names)} outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
