import qsteer


def test_public_names_resolve_once_and_sorted():
    names = qsteer.__all__
    assert [n for n in names if not hasattr(qsteer, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
