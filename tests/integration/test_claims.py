"""The claim index (``tests/claims.py``) names only checks that exist,
and every claim DESIGN.md §4 and EXPERIMENTS.md cite, and every example,
has a row.

Node ids this session collected are looked up in it; the rest (all of
them when this test runs alone) are collected in a child, which fails on
one that does not collect."""

from ..claims import dangling


def test_every_claim_has_a_row_and_every_check_exists(request):
    found = dangling({item.nodeid for item in request.session.items})
    assert not found, "\n".join(found)
