import numpy as np

from depbernstein.mixing import MarkovChain

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def rand_sym(rng, d: int):
    """A random symmetric d x d matrix with entries in [-2, 2]."""
    m = rng.uniform(-2.0, 2.0, (d, d))
    return (m + m.T) / 2.0


def sample_whole(chain, u):
    """chain.sample_paths on one (paths, steps) array of uniforms, given as
    a single row block."""
    return chain.sample_paths([u], u.shape)


def iid_chain(pi):
    """The chain whose rows all equal pi: independent draws from pi."""
    pi = np.asarray(pi, dtype=float)
    return MarkovChain(np.tile(pi, (pi.size, 1)))
