import locus


def test_every_public_name_resolves():
    for name in locus.__all__:
        assert getattr(locus, name) is not None, name


def test_public_names_are_pinned():
    assert set(locus.__all__) == {
        "FAILS", "HOLDS",
        "ExceptionalForm", "FactoredRational", "LocusError", "SieveReport",
        "Verdict", "clear_denominators", "covers",
        "cubic_quad", "decide", "decide_prime_power", "decide_q", "decide_square",
        "dedupe", "even_optimal", "exceptional_pair",
        "exponentiate_classes", "factor", "find_counterexample",
        "is_kth_power_mod_p", "is_perfect_power", "lifted", "match_exceptional_pair",
        "odd_optimal", "parse_rational", "reduce_class", "scan",
        "set_has_kth_power_mod_p", "skalba_oracle", "square_triple",
        "verify_document",
    }
    assert len(locus.__all__) == len(set(locus.__all__))


def test_classify_reexports_the_template_names():
    from locus import classify, families
    assert classify.match_exceptional_pair is families.match_exceptional_pair
    assert classify.ExceptionalForm is families.ExceptionalForm
