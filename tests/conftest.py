import numpy as np
import pytest

from siqm import Harmonic, Morse, SelfSimilar, energy_levels


@pytest.fixture(scope="session")
def level_tables():
    """Seeded (table, N) pairs of all three families: q in [0.05, 1], N <= 41.

    Each table reaches level N - 1; at small q and large N the float levels
    stop rising, so a few tables are degenerate.
    """
    rng = np.random.default_rng(19)
    tables = []
    for _ in range(40):
        N = int(rng.integers(1, 42))
        tables += [(energy_levels(SelfSimilar(q=float(rng.uniform(0.05, 1.0)),
                                              c=float(rng.uniform(0.5, 2.0)),
                                              a1=float(rng.uniform(0.5, 2.0))), N - 1), N),
                   (energy_levels(Harmonic(a1=float(rng.uniform(0.1, 3.0))), N - 1), N),
                   (energy_levels(Morse(a1=N + float(rng.uniform(0.5, 20.0))), N - 1), N)]
    return tables


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one line per acceptance criterion at the end of every run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number, tag, description, detail in sorted(RESULTS):
        line = f"  ACCEPTANCE {number}: {tag} - {description}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
