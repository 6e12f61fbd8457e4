import luequiv


def test_every_exported_name_resolves():
    missing = [name for name in luequiv.__all__ if not hasattr(luequiv, name)]
    assert not missing
    assert len(set(luequiv.__all__)) == len(luequiv.__all__)
