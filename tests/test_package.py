import locus


def test_every_public_name_resolves():
    for name in locus.__all__:
        assert getattr(locus, name) is not None, name
