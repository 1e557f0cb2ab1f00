import tsea


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted fails here
    assert [name for name in tsea.__all__ if not hasattr(tsea, name)] == []
    assert len(set(tsea.__all__)) == len(tsea.__all__)
