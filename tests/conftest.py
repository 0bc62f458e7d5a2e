import pytest

from finclone import cli


@pytest.fixture
def argparse_refuses(monkeypatch):
    """The argument parser's own parse methods raise, so a command runs only
    if `cli.main` reads its argv in its one pass."""
    def refuse(*args, **kwargs):
        raise AssertionError("argparse read a well-formed argv")

    for method in ("parse_args", "parse_known_args",
                   "parse_intermixed_args", "parse_known_intermixed_args"):
        monkeypatch.setattr(cli.PARSER, method, refuse)
