"""The reach census's call matching: a call is credited to a ``def`` of
its callee's name only when its arguments can bind that signature."""

import ast

from tests.reach_census import add_call_sites, binds, defaulted, passers

DEFS = '''
class Mds:
    def handle_create(self, path, mode, uid, check=True):
        pass

class Index:
    def handle_create(self, node, path, mode, uid, gid, now=0.0):
        pass

def spread(*args, **kwargs):
    pass

def spread(a, *args, flag=False, **kwargs):
    pass
'''

CALLS = '''
index.handle_create(node, "/a", 0o644, 0, 0)
mds.handle_create("/b", 0o644, 0)
spread(1, 2, 3, other=4)
'''


def _defs():
    """``(def node, whether a class owns it)`` in source order."""
    tree = ast.parse(DEFS)
    out = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            out += [(node, True) for node in top.body]
        else:
            out.append((top, False))
    return out


def _sites():
    sites = {}
    add_call_sites(ast.parse(CALLS), "tests/test_x.py", sites)
    return sites


def test_a_positional_call_sets_only_the_same_named_def_it_binds():
    """Five positional arguments bind ``Index.handle_create`` and set
    nothing of it; they cannot bind ``Mds.handle_create``, which takes
    four at most, so the fifth does not set its ``check``."""
    (mds, _), (index, _), _, _ = _defs()
    sites = _sites()["handle_create"]
    assert [binds(mds, True, site) for site in sites] == [False, True]
    assert [binds(index, True, site) for site in sites] == [True, False]
    assert defaulted(mds, True) == [("check", 3)]
    assert passers(mds, True, "check", 3, sites) == []
    assert passers(index, True, "now", 5, sites) == []


def test_keywords_and_counts_a_def_cannot_take_do_not_bind():
    (mds, _), _, _, _ = _defs()

    def site(n, keywords=(), star=False, double=False):
        return ("tests/test_x.py", n, star, set(keywords), double)

    assert binds(mds, True, site(4))
    assert not binds(mds, True, site(5))                # too many
    assert not binds(mds, True, site(2))                # ``uid`` missing
    assert binds(mds, True, site(2, ["uid"]))
    assert not binds(mds, True, site(3, ["uid"]))       # ``uid`` twice
    assert not binds(mds, True, site(3, ["gid"]))       # no ``gid``
    assert not binds(mds, True, site(3, ["self"]))      # written by ``.``
    assert binds(mds, True, site(1, star=True))         # ``*`` may fill
    assert binds(mds, True, site(0, double=True))       # ``**`` may fill


def test_star_defs_accept_any_count_and_any_keyword():
    _, _, (loose, _), (mixed, _) = _defs()
    (site,) = _sites()["spread"]
    assert binds(loose, False, site)
    assert binds(mixed, False, site)
    assert passers(mixed, False, "flag", None, [site]) == []
    assert not binds(mixed, False, ("tests/test_x.py", 0, False, set(),
                                    False))           # ``a`` is required
