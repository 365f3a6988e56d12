import pytest

from qr2m.qr import build_family

# The constructible points of the wide grid: primes p < 200 with
# p = +-1 mod 8, at 4 <= m <= 8.
CONSTRUCTIBLE = (
    (7, 4), (17, 5), (23, 4), (31, 6), (41, 4), (47, 5), (71, 4), (73, 4),
    (79, 5), (89, 4), (97, 6), (103, 4), (113, 5), (127, 8), (137, 4),
    (151, 4), (167, 4), (191, 7), (193, 7), (199, 4),
)


@pytest.fixture(scope="session")
def constructible_points():
    return CONSTRUCTIBLE


@pytest.fixture(scope="session")
def families():
    """The family at each constructible point, built once per session.

    A family builds each of its codes on first access and keeps it, so
    tests that share this fixture share the codes too.
    """
    return {point: build_family(*point) for point in CONSTRUCTIBLE}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from _acceptance_log import LINES
    except ImportError:
        return
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)
