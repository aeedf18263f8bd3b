"""Seeded job lists for the benchmark workloads.

A job is one `siqm` CLI invocation, given as the argv list that
`siqm.cli.run_command` receives. Jobs come in rounds of fixed composition
(the same commands at the same levels in the same order every round), and
each job draws its own continuous parameters from quasi-random streams
started from the seed, so no two jobs share a family. The fixed
composition and the even coverage of the streams keep the job-time
distribution of a run alike from seed to seed, while every seed computes
different families. See NOTES.md for why each workload exists.
"""

import random

# q, c and a1 ranges; c and a1 scale the remainder R(a) = c a and the chain start.
SPECTRAL_Q = (0.3, 0.95)
ALGEBRA_Q = (0.3, 0.95)
DYNAMICS_Q = (0.5, 1.0)
SCALE = (0.8, 1.25)

# evolve runs at the CLI defaults; the step must satisfy the documented
# stability budget dt * (E_max + 2 |f0| sqrt(E_max)) <= 0.1 (dynamics.evolve_forced)
EVOLVE_T_MAX = 5.0
EVOLVE_DT = 0.002
STABILITY_BUDGET = 0.1


class Job:
    """One CLI invocation: argv with output paths relative to a job directory."""

    def __init__(self, index: int, round_: int, kind: str, params: dict, argv: list):
        self.index = index
        self.round = round_
        self.kind = kind            # command name, plus the suite for verify
        self.params = params        # the drawn parameters, for the output checks
        self.argv = argv            # "{dir}" marks the job's output directory

    def argv_in(self, directory: str) -> list:
        return [a.replace("{dir}", directory) for a in self.argv]

    def record(self) -> dict:
        return {"index": self.index, "round": self.round, "kind": self.kind,
                "argv": self.argv}


def _num(v: float) -> str:
    return repr(float(v))


def _family_flags(q, c, a1) -> list:
    return ["--family", "selfsimilar", "--q", _num(q), "--c", _num(c), "--a1", _num(a1)]


def _levels_energy(q: float, c: float, a1: float, n: int) -> float:
    if q == 1.0:
        return c * a1 * n
    return c * a1 * (1.0 - q ** n) / (1.0 - q)


class _Stream:
    """Quasi-random points in [0, 1)^d by the additive R_d recurrence.

    The start point comes from the seed. Any run of consecutive points
    covers the cube evenly, so a run of a few rounds sees nearly the same
    spread of q, c, a1 and levels whatever the seed, which keeps job times
    and the share of jobs in known-defect regions alike from run to run.
    """

    def __init__(self, rng: random.Random, d: int):
        g = 2.0
        for _ in range(50):      # g solves g^(d+1) = g + 1
            g = (1.0 + g) ** (1.0 / (d + 1))
        self.alpha = [g ** -(k + 1) for k in range(d)]
        self.x = [rng.random() for _ in range(d)]

    def next(self) -> list:
        self.x = [(x + a) % 1.0 for x, a in zip(self.x, self.alpha)]
        return self.x


class _Draw:
    """One stream per job slot of a round, all started from the seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.streams = {}

    def point(self, slot: str, d: int) -> list:
        if slot not in self.streams:
            self.streams[slot] = _Stream(self.rng, d)
        return self.streams[slot].next()


def _at(u: float, lo_hi) -> float:
    lo, hi = lo_hi
    return lo + u * (hi - lo)


def _scaling(u: list, q_range) -> tuple:
    return _at(u[0], q_range), _at(u[1], SCALE), _at(u[2], SCALE)


def _strata(u: float, r: int, lo_hi) -> list:
    """Three values, one in each third of the range, rotated by the round.

    Entry k goes with level k of the caller, so every three rounds pair
    each level with each third of the q range once (a Latin square).
    """
    lo, hi = lo_hi
    vals = [lo + (k + u) / 3.0 * (hi - lo) for k in range(3)]
    return [vals[(k + r) % 3] for k in range(3)]


def _spectral_round(d: _Draw, r: int, offset: int) -> list:
    # every round runs each level of each command once, so the command and
    # level mix of a run does not depend on how many rounds fit into it
    jobs = []
    u = d.point("spectrum", 3)
    for k, q in enumerate(_strata(u[0], r + offset, SPECTRAL_Q)):
        c, a1 = _at(u[1], SCALE), _at((u[2] + k / 3.0) % 1.0, SCALE)
        n = 4 + k
        jobs.append(("spectrum", dict(q=q, c=c, a1=a1, levels=n),
                     ["spectrum", *_family_flags(q, c, a1), "--levels", str(n),
                      "--out", "{dir}/spectrum.csv"]))
    u = d.point("eigenstates", 3)
    for k, q in enumerate(_strata(u[0], r + offset + 1, SPECTRAL_Q)):
        c, a1 = _at(u[1], SCALE), _at((u[2] + k / 3.0) % 1.0, SCALE)
        n = 2 + k
        jobs.append(("eigenstates", dict(q=q, c=c, a1=a1, levels=n),
                     ["eigenstates", *_family_flags(q, c, a1), "--levels", str(n),
                      "--out", "{dir}/eigenstates.csv"]))
    u = d.point("coeffs", 3)
    for k, q in enumerate(_strata(u[0], 0, SPECTRAL_Q)):
        c, a1 = _at(u[1], SCALE), _at((u[2] + k / 3.0) % 1.0, SCALE)
        c0 = c * a1 / (1.0 + q)
        jobs.append(("coeffs", dict(q=q, c0=c0, order=40, grid=(-40.0, 40.0, 8001)),
                     ["coeffs", "--q", _num(q), "--c0", _num(c0),
                      "--grid-min", "-40", "--grid-max", "40", "--grid-points", "8001",
                      "--out", "{dir}/coeffs.csv"]))
    return jobs


def _algebra_round(d: _Draw, r: int, offset: int) -> list:
    jobs = []
    for suite in ("lattice-algebra", "shape-invariance", "dilation", "q-oscillator"):
        q, c, a1 = _scaling(d.point(suite, 3), ALGEBRA_Q)
        jobs.append((f"verify:{suite}", dict(family="selfsimilar", q=q, c=c, a1=a1),
                     ["verify", "--suite", suite, *_family_flags(q, c, a1),
                      "--report", "{dir}/report.json"]))
    # one translation-class job per round, which needs no series at all
    family, suite, base = [("harmonic", "lattice-algebra", 1.0),
                           ("morse", "shape-invariance", 2.5),
                           ("harmonic", "shape-invariance", 1.0),
                           ("morse", "lattice-algebra", 2.5)][(r + offset) % 4]
    a1 = base * _at(d.point("translation", 1)[0], SCALE)
    jobs.append((f"verify:{suite}", dict(family=family, a1=a1),
                 ["verify", "--suite", suite, "--family", family, "--a1", _num(a1),
                  "--report", "{dir}/report.json"]))
    return jobs


def _evolve_top(q, c, a1, f0) -> int:
    """Largest level count in 16..30 that meets the stability budget."""
    top = 30
    while top > 16:
        e = _levels_energy(q, c, a1, top)
        if EVOLVE_DT * (e + 2 * f0 * e ** 0.5) <= STABILITY_BUDGET * 0.99:
            break
        top -= 1
    return top


def _dynamics_round(d: _Draw, r: int, offset: int) -> list:
    jobs = []
    for i in range(3):
        u = d.point(f"evolve{i}", 5)
        q, c, a1 = _scaling(u, DYNAMICS_Q)
        if i == (r + offset) % 3:
            q = 1.0       # the equal-spacing limit, where the closed form is exact
        f0 = _at(u[3], (0.05, 0.3))
        if (r + i) % 2:
            spec = f"pulse:{_num(f0)},{_num(d.rng.uniform(1.5, 3.5))},{_num(d.rng.uniform(0.5, 1.5))}"
        else:
            spec = f"const:{_num(f0)}"
        top = _evolve_top(q, c, a1, f0)
        n = 16 + int((top - 15) * u[4])
        jobs.append(("evolve", dict(q=q, c=c, a1=a1, levels=n, drive=spec,
                                    t_max=EVOLVE_T_MAX, dt=EVOLVE_DT),
                     ["evolve", *_family_flags(q, c, a1), "--levels", str(n),
                      "--drive", spec, "--out", "{dir}/evolve.csv"]))
    u = d.point("coherent", 5)
    q, c, a1 = _scaling(u, DYNAMICS_Q)
    n = 10 + int(31 * u[3])
    z = (_at(u[4], (0.2, 1.5)), d.rng.uniform(-0.5, 0.5))
    jobs.append(("coherent", dict(q=q, c=c, a1=a1, levels=n, z=z),
                 ["coherent", *_family_flags(q, c, a1), "--levels", str(n),
                  "--z-re", _num(z[0]), "--z-im", _num(z[1]),
                  "--out", "{dir}/coherent.csv"]))
    u = d.point("matrix", 4)
    q, c, a1 = _scaling(u, DYNAMICS_Q)
    n = 10 + int(31 * u[3])
    jobs.append(("verify:matrix-identities", dict(q=q, c=c, a1=a1, levels=n),
                 ["verify", "--suite", "matrix-identities", *_family_flags(q, c, a1),
                  "--levels", str(n), "--report", "{dir}/report.json"]))
    return jobs


def _spectral_algebra_round(d: _Draw, r: int, offset: int) -> list:
    return _spectral_round(d, r, offset) + _algebra_round(d, r, offset)


ROUNDS = {"spectral-algebra": _spectral_algebra_round, "dynamics": _dynamics_round}


def job_list(workload: str, seed: int, n_rounds: int) -> list:
    """The first n_rounds rounds of the workload's seeded job list."""
    make = ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    draw = _Draw(rng)
    offset = rng.randrange(12)
    jobs = []
    for r in range(n_rounds):
        for kind, params, argv in make(draw, r, offset):
            jobs.append(Job(len(jobs), r, kind, params, argv))
    return jobs


# Known defects at the parent of the benchmark, reproduced by fixed argv lists
# so that the failure census records them whatever the seeded draws hit.
CENSUS = [
    ["evolve", "--q", "0.5", "--levels", "3", "--drive", "const:2",
     "--out", "{dir}/evolve.csv"],
    ["coherent", "--q", "0.7", "--levels", "30", "--out", "{dir}/coherent.csv"],
    ["coherent", "--q", "0.3", "--levels", "20", "--out", "{dir}/coherent.csv"],
    ["spectrum", "--q", "0.42", "--levels", "6", "--out", "{dir}/spectrum.csv"],
    ["spectrum", "--q", "0.35", "--levels", "5", "--out", "{dir}/spectrum.csv"],
    ["eigenstates", "--family", "selfsimilar", "--q", "0.3", "--levels", "4",
     "--out", "{dir}/eigenstates.csv"],
    ["eigenstates", "--family", "selfsimilar", "--q", "0.2", "--levels", "3",
     "--out", "{dir}/eigenstates.csv"],
]


def census_jobs() -> list:
    jobs = []
    for argv in CENSUS:
        # the CLI defaults for everything the argv leaves out
        params = {"q": float(argv[argv.index("--q") + 1]), "c": 1.0, "a1": 1.0,
                  "levels": int(argv[argv.index("--levels") + 1]), "z": (1.0, 0.0),
                  "t_max": EVOLVE_T_MAX, "dt": EVOLVE_DT}
        jobs.append(Job(len(jobs), 0, argv[0], params, argv))
    return jobs


# Tiny jobs for the tracer self-check: small grids and short runs, covering
# every command and every lattice relation count the check derives.
_SMALL = ["--grid-min", "-8", "--grid-max", "8", "--grid-points", "401"]
_SMALL_BOX = ["--grid-min", "-10", "--grid-max", "10", "--grid-points", "801"]
SELFCHECK = [
    ("evolve", dict(q=1.0, c=1.0, a1=1.0, levels=4, t_max=0.2, dt=EVOLVE_DT),
     ["evolve", "--q", "1.0", "--levels", "4", "--drive", "const:0.1",
      "--t-max", "0.2", "--out", "{dir}/evolve.csv"]),
    ("evolve", dict(q=0.7, c=1.0, a1=1.0, levels=5, t_max=0.1, dt=EVOLVE_DT),
     ["evolve", "--q", "0.7", "--levels", "5", "--drive", "const:0.1",
      "--t-max", "0.1", "--out", "{dir}/evolve.csv"]),
    ("verify:lattice-algebra", dict(family="selfsimilar", q=0.6),
     ["verify", "--suite", "lattice-algebra", "--q", "0.6", *_SMALL,
      "--report", "{dir}/report.json"]),
    ("verify:lattice-algebra", dict(family="harmonic"),
     ["verify", "--suite", "lattice-algebra", "--family", "harmonic", *_SMALL,
      "--report", "{dir}/report.json"]),
    ("verify:q-oscillator", dict(family="selfsimilar", q=0.6),
     ["verify", "--suite", "q-oscillator", "--q", "0.6", *_SMALL,
      "--report", "{dir}/report.json"]),
    ("verify:shape-invariance", dict(family="selfsimilar", q=0.6),
     ["verify", "--suite", "shape-invariance", "--q", "0.6", *_SMALL,
      "--report", "{dir}/report.json"]),
    ("verify:dilation", dict(family="selfsimilar", q=0.6),
     ["verify", "--suite", "dilation", "--q", "0.6", *_SMALL,
      "--report", "{dir}/report.json"]),
    ("spectrum", dict(q=0.6, c=1.0, a1=1.0, levels=2),
     ["spectrum", "--q", "0.6", "--levels", "2", *_SMALL_BOX, "--out", "{dir}/spectrum.csv"]),
    ("eigenstates", dict(q=0.6, c=1.0, a1=1.0, levels=2),
     ["eigenstates", "--family", "selfsimilar", "--q", "0.6", "--levels", "2", *_SMALL_BOX,
      "--out", "{dir}/eigenstates.csv"]),
    ("coherent", dict(q=0.6, c=1.0, a1=1.0, levels=10, z=(1.0, 0.0)),
     ["coherent", "--q", "0.6", "--levels", "10", "--out", "{dir}/coherent.csv"]),
    ("verify:matrix-identities", dict(family="selfsimilar", q=0.6),
     ["verify", "--suite", "matrix-identities", "--q", "0.6", "--levels", "10",
      "--report", "{dir}/report.json"]),
]


def selfcheck_jobs() -> list:
    return [Job(i, 0, kind, params, argv) for i, (kind, params, argv) in enumerate(SELFCHECK)]


# Commands whose tiny self-check jobs warm a workload's process before timing:
# first calls pay lazy scipy imports (about 0.8 s for the first evolve).
WARMUP = {
    "spectral-algebra": {"spectrum", "eigenstates", "verify:q-oscillator"},
    "dynamics": {"evolve", "coherent", "verify:matrix-identities"},
    "census": set(),
}


def warmup_jobs(workload: str) -> list:
    return [job for job in selfcheck_jobs() if job.kind in WARMUP[workload]]
