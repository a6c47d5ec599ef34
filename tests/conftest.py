import numpy as np

ACCEPTANCE_LINES: list[str] = []


def same_coeffs(a, b, tol: float = 1e-12) -> bool:
    """|a_n - b_n| <= tol for every n up to the common truncation degree of two series."""
    n = min(a.order, b.order) + 1
    return bool(np.all(np.abs(a.coeffs[:n] - b.coeffs[:n]) <= tol))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
