import io
import json
import random
import warnings

import jsonschema
import pytest

from sgw.cli import (
    EXIT_GUARD,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
    parse_graph,
    serialize_graph,
)
from sgw.constructions import make
from sgw.core import build
from sgw.product import product_many
from sgw.errors import ParseError
from sgw.homomorphism import SignedHomomorphism, validate
from sgw.schemas import (
    BALANCE_SCHEMA,
    CERTIFICATE_SCHEMA,
    COORDINATES_SCHEMA,
    DECOMPOSITION_SCHEMA,
    SWITCH_SET_SCHEMA,
)

from test_s_factor import each_color_apart

from oracles import digest, wagner


DECOMPOSE_PINS = {  # per console-script smoke graph: input and output digests
    "m8c5": ("fc83cb590387e8db7758c060aedeb1e21b10336a952af41075c4f61393ce35c7",
             "2005f399538accb45a1b2988aa803c46c6866cc7c9ba773a475dd8cbda77e33e"),
    "uc83": ("15253456e03b9e8bdd156b8ab44e72c1ec726a64b9a8db4742905141223228eb",
             "9f04769e87d995ff1b487c30c731c362dfcc5cb1abe4ce9a68d958ce9a96e324"),
    "c84": ("77c2ab0f91362e2e2ba8ad6d7d3fc7acb5223eab491033991624f3002cd4b482",
             "b737e9cc80a7d00f9f854827fc8f7be09678edd43286912c189e4fc876fcfb24"),
    "q10": ("b9ce354647aa1e0280bb64ff172e879c3d68258210cbe781ea7b96b2c8bcef28",
             "2bed75b970713bfc5e08fd1bf39ca89a053ccc17b2a819bbfed0dd681757c38f"),
}


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


class TestGraphFormat:
    def test_round_trip(self):
        g = build(4, [(0, 1, 1), (1, 2, -1), (0, 3, -1)])
        assert parse_graph(serialize_graph(g)) == g

    def test_serialized_text_is_canonical(self):
        g = build(3, [(2, 0, 1), (1, 0, -1)])
        text = serialize_graph(g)
        assert text == "sg 3\n0 1 -\n0 2 +\n"
        assert serialize_graph(parse_graph(text)) == text

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("# comment\nsg 2\n\n0 1 +\n# trailing\n")
        assert g.n == 2 and g.sign(0, 1) == 1

    @pytest.mark.parametrize(
        "text",
        ["", "nope 3", "sg x", "sg -1", "sg 2\n0 1 ?", "sg 2\n0 1",
         "sg 2\na b +"],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_graph(text)


class TestCommands:
    def test_product_with_coords(self, tmp_path, capsys):
        a = write_graph(tmp_path, "a.sg", make("K_plus", 2))
        b = write_graph(tmp_path, "b.sg", make("K_minus", 2))
        coords = tmp_path / "coords.json"
        out = tmp_path / "prod.sg"
        code = main(["product", a, b, "-o", str(out), "--coords", str(coords)])
        assert code == EXIT_OK
        g = parse_graph(out.read_text())
        assert g.n == 4 and g.m == 4
        payload = json.loads(coords.read_text())
        jsonschema.validate(payload, COORDINATES_SCHEMA)
        assert payload["coords"] == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_decompose_bc4(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c4.sg", make("BC", 4))
        out = tmp_path / "dec.json"
        prefix = str(tmp_path / "factor_")
        code = main(["decompose", path, "-o", str(out),
                     "--factors-prefix", prefix])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, DECOMPOSITION_SCHEMA)
        assert len(payload["factors"]) == 2
        for i in range(2):
            f = parse_graph((tmp_path / f"factor_{i}.sg").read_text())
            assert f.n == 2 and f.negative_edges() == ()

    @pytest.mark.parametrize("name", ["m8c5", "uc83", "c84", "q10"])
    def test_decompose_json_matches_pair_keyed_oracle(self, tmp_path, name):
        # the console-script smoke graphs
        parts = {"m8c5": [wagner(), make("BC", 5)], "uc83": [make("UC", 8)] * 3,
                 "c84": [make("BC", 8)] * 4, "q10": [make("K_plus", 2)] * 10}[name]
        g, _ = product_many(parts)
        out = tmp_path / "dec.json"
        assert main(["decompose", write_graph(tmp_path, "g.sg", g), "-o", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, DECOMPOSITION_SCHEMA)
        # pinned where these fields equalled the pair-keyed decomposition's
        inputs, outputs = DECOMPOSE_PINS[name]
        assert digest(g) == inputs
        assert digest([payload["factor_of_edge"], payload["coords"],
                       payload["switch_set"]]) == outputs
        assert len(payload["factors"]) == len(parts)

    @pytest.mark.parametrize("broken, replacement, message", [
        ("sgw.s_factor._joined_colors", each_color_apart, "no switching"),
        ("sgw.factor_ordinary._coordinatize", lambda *args: None, "did not coordinatize"),
    ])
    def test_decompose_invariant_violation_is_parse_exit(self, capsys, monkeypatch,
                                                         broken, replacement, message):
        # C5 x C7 with one edge flipped, read from stdin
        g, _ = product_many([make("BC", 5), make("BC", 7)])
        g = build(g.n, [(u, v, -s if i == 0 else s) for i, (u, v, s) in enumerate(g.edges)])
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph(g)))
        assert main(["decompose", "-"]) == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)["factors"]) == 1  # s-prime
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph(g)))
        monkeypatch.setattr(broken, replacement)
        assert main(["decompose", "-"]) == EXIT_PARSE
        assert message in capsys.readouterr().err

    def test_chi_uc4_prints_4(self, tmp_path, capsys):
        path = write_graph(tmp_path, "uc4.sg", make("UC", 4))
        cert = tmp_path / "cert.json"
        code = main(["chi", path, "--certificate", str(cert)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "4"
        payload = json.loads(cert.read_text())
        jsonschema.validate(payload, CERTIFICATE_SCHEMA)
        # the certificate is self-contained: re-check it with validate alone
        target = build(payload["target"]["n"],
                       [tuple(e) for e in payload["target"]["edges"]])
        hom = SignedHomomorphism(tuple(payload["map"]),
                                 frozenset(payload["switch_set"]))
        assert validate(make("UC", 4), target, hom)

    def test_chi_revalidation_failure_is_parse_exit(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr("sgw.cli.validate", lambda *args: False)
        path = write_graph(tmp_path, "uc4.sg", make("UC", 4))
        assert main(["chi", path]) == EXIT_PARSE
        assert capsys.readouterr().err == "sgw: certificate failed re-validation\n"

    def test_chi_guard_exit(self, tmp_path, capsys):
        path = write_graph(tmp_path, "k8.sg", make("K_plus", 8))
        assert main(["chi", path]) == EXIT_GUARD

    def test_chi_empty_graph_is_parse_exit(self, tmp_path, capsys):
        # an empty graph is a bad argument, as for decompose, not a guard
        path = write_graph(tmp_path, "empty.sg", build(0, []))
        assert main(["chi", path]) == EXIT_PARSE
        assert main(["decompose", path]) == EXIT_PARSE

    def test_chi_long_path_prints_2(self, tmp_path, capsys):
        # 1500 vertices in one component: past Python's recursion limit
        rng = random.Random(89)
        path = write_graph(tmp_path, "path.sg", build(
            1500, [(v, v + 1, rng.choice((1, -1))) for v in range(1499)]))
        assert main(["chi", path]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "2"

    def test_chi_recursion_limit_is_guard_exit(self, tmp_path, capsys,
                                               monkeypatch):
        def deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("sgw.cli.chromatic_number", deep)
        path = write_graph(tmp_path, "uc4.sg", make("UC", 4))
        assert main(["chi", path]) == EXIT_GUARD
        assert capsys.readouterr().err.startswith("sgw: guard exceeded: ")

    def test_unexpected_error_is_parse_exit(self, tmp_path, capsys,
                                            monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("lost")

        monkeypatch.setattr("sgw.cli.s_decompose", broken)
        path = write_graph(tmp_path, "c4.sg", make("BC", 4))
        assert main(["decompose", path]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(
            "sgw: internal error: KeyError: ")

    def test_equiv_positive(self, tmp_path, capsys):
        g = make("BC", 5)
        a = write_graph(tmp_path, "a.sg", g)
        b = write_graph(tmp_path, "b.sg", g)
        assert main(["equiv", a, b]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, SWITCH_SET_SCHEMA)
        assert payload == {"equivalent": True, "switch_set": []}

    def test_equiv_negative(self, tmp_path, capsys):
        a = write_graph(tmp_path, "a.sg", make("BC", 4))
        b = write_graph(tmp_path, "b.sg", make("UC", 4))
        assert main(["equiv", a, b]) == EXIT_NEGATIVE
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, SWITCH_SET_SCHEMA)
        assert payload == {"equivalent": False}

    def test_equiv_different_underlying_is_parse_exit(self, tmp_path, capsys):
        a = write_graph(tmp_path, "a.sg", make("BC", 4))
        b = write_graph(tmp_path, "b.sg", make("BC", 5))
        assert main(["equiv", a, b]) == EXIT_PARSE

    def test_balance_exit_codes(self, tmp_path, capsys):
        bal = write_graph(tmp_path, "bc.sg", make("BC", 4))
        unbal = write_graph(tmp_path, "uc.sg", make("UC", 4))
        assert main(["balance", bal]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, BALANCE_SCHEMA)
        assert payload["balanced"] is True
        assert main(["balance", unbal]) == EXIT_NEGATIVE
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, BALANCE_SCHEMA)
        assert payload["balanced"] is False and payload["witness_walk"]

    def test_read_closes_the_input_file(self, tmp_path, capsys):
        path = write_graph(tmp_path, "bc.sg", make("BC", 4))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["balance", path]) == EXIT_OK
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_make_round_trips(self, tmp_path, capsys):
        out = tmp_path / "uc5.sg"
        assert main(["make", "UC", "5", "-o", str(out)]) == EXIT_OK
        assert parse_graph(out.read_text()) == make("UC", 5)
        # without -o the graph goes to stdout
        assert main(["make", "UC", "4"]) == EXIT_OK
        assert parse_graph(capsys.readouterr().out) == make("UC", 4)

    def test_verify_k4_classes_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "k4_classes", "--json", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "report: k4_classes" in text and "[PASS]" in text
        from sgw.schemas import REPORT_SCHEMA

        jsonschema.validate(json.loads(out.read_text()), REPORT_SCHEMA)

    def test_verify_guard_exit(self, capsys):
        assert main(["verify", "k18"]) == EXIT_GUARD
        assert main(["verify", "cycle_table", "--max-len", "7"]) == EXIT_GUARD

    def test_verify_k18_unbounded_fails(self, capsys):
        assert main(["verify", "k18", "--unbounded"]) == EXIT_NEGATIVE
        assert "interval [18, unknown]" in capsys.readouterr().out


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE
        assert main(["make", "BC"]) != EXIT_OK  # missing parameter

    def test_missing_file(self, capsys):
        assert main(["balance", "/nonexistent/g.sg"]) == EXIT_USAGE

    def test_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.sg"
        bad.write_text("sg 2\n0 1 ?\n")
        assert main(["balance", str(bad)]) == EXIT_PARSE

    def test_construction_error_is_parse_exit(self, tmp_path, capsys):
        assert main(["make", "BC", "2"]) == EXIT_PARSE
