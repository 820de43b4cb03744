"""Shared pytest plumbing: the Hypothesis profile and the acceptance
verdict registry.

The profile loaded here, "tier1", derandomizes Hypothesis, so that a
tree's verdict does not change between runs.  To draw random examples
instead, looking for new counterexamples, load Hypothesis's own default
profile: pytest --hypothesis-profile=default.

Verdict lines are emitted in the terminal summary so they survive output
capture and appear once per criterion at the end of every run.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

ACCEPTANCE_VERDICTS = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
