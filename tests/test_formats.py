"""Parsing, canonical serialization, fingerprints, schematic export."""

import hashlib
import random

import pytest

from skdiag import (
    MoveKind,
    ParseError,
    R1Plus,
    R2Minus,
    census,
    fingerprint,
    parse_skd,
    parse_skd_document,
    parse_skm,
    serialize_canonical,
    export_schematic,
)
from skdiag.explorer import SizeBudget, generate_random_complex

from tests.conftest import fixture_text

# frozen at fixture creation; guards against accidental format drift
TREFOIL_FINGERPRINT = \
    "c6de7252cf5e6543e9bcb98059be81d963d92396ecfe185102ab061d6878cc6f"


def test_single_circle_document():
    cx = parse_skd("circle C1\n")
    assert census(cx).closed_curves == 1


def test_trefoil_parses(trefoil):
    text = fixture_text_of_trefoil()
    assert sum(1 for line in text.splitlines()
               if line.startswith("triple ")) == 4
    assert fingerprint(trefoil) == TREFOIL_FINGERPRINT


def fixture_text_of_trefoil():
    from skdiag.fixtures import fixture_text as bundled_text
    return bundled_text("trefoil.skd")


def test_round_trip_idempotent(trefoil, r2, r3, r5, r6):
    for cx in (trefoil, r2, r3, r5, r6):
        text = serialize_canonical(cx)
        again = parse_skd(text)
        assert again == cx
        assert serialize_canonical(again) == text


def test_fingerprint_invariant_under_record_order(trefoil):
    text = serialize_canonical(trefoil)
    lines = [l for l in text.splitlines() if l]
    rng = random.Random(3)
    for _ in range(5):
        rng.shuffle(lines)
        shuffled = parse_skd("\n".join(lines) + "\n")
        assert fingerprint(shuffled) == fingerprint(trefoil)


def test_fingerprint_differs_for_different_complexes(trefoil, r2):
    assert fingerprint(trefoil) != fingerprint(r2)


def test_round_trip_random_complexes():
    for seed in range(1, 11):
        cx = generate_random_complex(seed, SizeBudget(2, 2, 1), disks=1)
        assert parse_skd(serialize_canonical(cx)) == cx


def test_comment_and_blank_lines():
    cx = parse_skd("# header\n\ncircle C1  # trailing\n")
    assert len(cx.edges) == 1


def test_duplicate_id_diagnostic():
    with pytest.raises(ParseError) as exc:
        parse_skd("circle C1\ncircle C1\n")
    (diag,) = exc.value.diagnostics
    assert diag[0] == 2
    assert "duplicate" in diag[2]


def test_slot_conflict_reports_both_lines():
    text = """triple T1 lines=bm,bt,mt
branch B1
branch B2
edge E1 T:T1.0.a B:B1
edge E2 T:T1.0.a B:B2
"""
    with pytest.raises(ParseError) as exc:
        parse_skd(text)
    conflict_lines = {ln for ln, _, msg in exc.value.diagnostics
                      if "claimed by edges" in msg}
    assert {4, 5} <= conflict_lines


def test_dangling_reference_diagnostic():
    with pytest.raises(ParseError) as exc:
        parse_skd("edge E1 B:B1 B:B2\n")
    assert any("unknown branch point" in msg for _, _, msg in exc.value.diagnostics)


def test_bad_line_type_diagnostic():
    with pytest.raises(ParseError) as exc:
        parse_skd("triple T1 lines=bm,bm,mt\n")
    assert any("permutation" in msg for _, _, msg in exc.value.diagnostics)


def test_bad_endpoint_syntax():
    for bad in ("edge E1 T:T1.3.a B:B1\n", "edge E1 T:T1.0.c B:B1\n",
                "edge E1 X:T1 B:B1\n"):
        with pytest.raises(ParseError):
            parse_skd("triple T1 lines=bm,bt,mt\nbranch B1\n" + bad)


def test_unchecked_parse_returns_invalid_complex():
    doc = parse_skd_document("triple T1 lines=bm,bt,mt\n", check=False)
    assert len(doc.complex.triple_points) == 1


def test_oracle_section():
    fp = "abc123".ljust(64, "0")
    doc = parse_skd_document(f"circle C1\noracle {fp} trivial\n")
    assert doc.oracle == {fp: "trivial"}
    with pytest.raises(ParseError):
        parse_skd_document(f"oracle {fp} maybe\n")


def test_triple_ids_may_contain_dots():
    cx = parse_skd("""triple T.1 lines=bm,bt,mt
edge E1 T:T.1.0.a T:T.1.0.b
edge E2 T:T.1.1.a T:T.1.1.b
edge E3 T:T.1.2.a T:T.1.2.b
""")
    assert "T.1" in cx.triples_by_id


# -- move scripts -----------------------------------------------------------


def test_parse_skm_trefoil_script():
    moves = parse_skm(fixture_text("trefoil_seq.skm"))
    assert [m.kind for m in moves] == [MoveKind.R1_PLUS, MoveKind.R6,
                                       MoveKind.R1_MINUS]
    assert isinstance(moves[0], R1Plus)
    assert moves[0].disk.partner_edge == "closed.2"
    assert moves[2].drop_disks == ("P9",)


def test_parse_skm_splice_and_lists():
    (move,) = parse_skm(
        "R2- t1=T1 t2=T2 curves=u1,v1 splice=T1.0.a:T1.0.b,T2.0.a:T2.0.b\n")
    assert isinstance(move, R2Minus)
    assert move.curves == ("u1", "v1")
    assert len(move.splice) == 2


def test_parse_skm_rejects_forbidden_kinds():
    with pytest.raises(ParseError) as exc:
        parse_skm("R1+ circle=c\nR2+ whatever=1\n")
    assert any("t-descendent" in msg for _, _, msg in exc.value.diagnostics)


def test_parse_skm_rejects_unknown_kind():
    with pytest.raises(ParseError):
        parse_skm("R9- t=T1\n")


def test_parse_skm_rejects_unknown_keys():
    with pytest.raises(ParseError) as exc:
        parse_skm("R6 disk=D1 extra=1\n")
    assert any("unknown key" in msg for _, _, msg in exc.value.diagnostics)


@pytest.mark.parametrize("text, column, token", [
    ("R6 disk=D1 disk=D2\n", 12, "disk=D2"),
    ("  R6 disk=D1 R\n", 14, "R"),  # its text is also the kind's first letter
])
def test_parse_skm_places_a_bad_token_at_its_own_column(text, column, token):
    with pytest.raises(ParseError) as exc:
        parse_skm(text)
    assert exc.value.diagnostics == (
        (1, column, f"bad or repeated key=value token {token!r}"),)


def test_parse_skm_rejects_missing_keys():
    with pytest.raises(ParseError) as exc:
        parse_skm("R2- t1=T1\n")
    assert any("missing key" in msg for _, _, msg in exc.value.diagnostics)


def test_parse_skm_incomplete_disk_declaration():
    with pytest.raises(ParseError) as exc:
        parse_skm("R1+ circle=c disk=P9\n")
    assert any("incomplete disk declaration" in msg
               for _, _, msg in exc.value.diagnostics)


# -- schematic --------------------------------------------------------------


def _dot_counts(dot: str) -> tuple[int, int]:
    nodes = sum(1 for line in dot.splitlines() if "[shape=" in line)
    edges = sum(1 for line in dot.splitlines() if " -- " in line)
    return nodes, edges


def test_schematic_single_circle():
    dot = export_schematic(parse_skd("circle C1\n"))
    assert '"C_C1" -- "C_C1"' in dot
    assert _dot_counts(dot) == (1, 1)


def test_schematic_trefoil(trefoil):
    dot = export_schematic(trefoil)
    rec = census(trefoil)
    nodes, edges = _dot_counts(dot)
    assert nodes == rec.triple_points + rec.branch_points + rec.circles
    assert edges == rec.arc_edges + rec.circles
    for t in trefoil.triple_points:
        assert f'"T_{t.id}"' in dot and "shape=triangle" in dot
    assert "0:mt 1:bm 2:bt" in dot
    # three curves, three distinct colors
    colors = {line.split("color ")[1] for line in dot.splitlines()
              if line.startswith("  // curve ")}
    assert len(colors) == 3
    for cid in ("closed", "open1", "open2"):
        assert f"({cid})" in dot


def test_schematic_counts_match_census_on_fixtures(r2, r3, r5, r6):
    for cx in (r2, r3, r5, r6):
        rec = census(cx)
        nodes, edges = _dot_counts(export_schematic(cx))
        assert nodes == rec.triple_points + rec.branch_points + rec.circles
        assert edges == rec.arc_edges + rec.circles


# SHA-256 of each DOT text, frozen before export_schematic became one pass
SCHEMATIC_SHA256 = {
    "r2": "62ac5783f9e3a426989c7c1a607058508eba26379269a97133766587fca9737e",
    "r3": "ccef409c37a17766957f496b7aa49f28db62e54fd2630f093cc37e09189b4865",
    "r5": "1ae7d64061337cba18d54b3690daf759f4829b044debede220de4e610ce6ee20",
    "r6": "28a10d87a8dbeba86747382789adc8ec7c2ed2c21549f5db41a3e409e54d14f2",
    "trefoil": "7b165960ab3b1e7b465c36126f4ebf2041886f20dcb90ff9b4dc4996e15d1d85",
    # 12 curves (the palette wraps), 6 circles, 5 disks
    "generated": "a3ca6c72b3ec022d3b6432a0536b7c051d25b8a07d2411a5e55f260afcf27758",
}


def test_schematic_bytes_are_pinned(r2, r3, r5, r6, trefoil):
    cxs = {"r2": r2, "r3": r3, "r5": r5, "r6": r6, "trefoil": trefoil,
           "generated": generate_random_complex(7, SizeBudget(30, 10, 6), disks=5)}
    for name, cx in cxs.items():
        dot = export_schematic(cx).encode("utf-8")
        assert hashlib.sha256(dot).hexdigest() == SCHEMATIC_SHA256[name], name


def test_derived_ids_are_deterministic(r2):
    from skdiag import apply_move
    from tests.conftest import r2_move
    a = apply_move(r2, r2_move())
    b = apply_move(r2, r2_move())
    assert fingerprint(a) == fingerprint(b)
    assert "s1.1" in a.edges_by_id


def test_conflicting_oracle_lines_name_both_lines():
    fp = "ab" * 32
    with pytest.raises(ParseError) as info:
        parse_skd_document(f"circle C1\noracle {fp} trivial\n"
                           f"oracle {fp} nontrivial\n")
    ((line, _, message),) = info.value.diagnostics
    assert line == 3 and "line 2" in message
    # a repeated annotation that agrees is not a conflict
    doc = parse_skd_document(f"oracle {fp} trivial\noracle {fp} trivial\n")
    assert doc.oracle == {fp: "trivial"}


@pytest.mark.parametrize("token", ["not-a-fingerprint", "AB12", "ab" * 33,
                                   "a" * 63, "a" * 65])
def test_oracle_fingerprint_must_be_lowercase_hex(token):
    with pytest.raises(ParseError, match="is not 64 lowercase hex digits"):
        parse_skd_document(f"oracle {token} trivial\n")


DISK_TEXT = ("edge E1 B:b1 B:b2\nedge E2 B:b3 B:b4\nbranch b1\nbranch b2\n"
             "branch b3\nbranch b4\n")


def test_unicode_whitespace_ascii_case_and_any_disk_key_order():
    canonical = parse_skd(DISK_TEXT + "disk D e1=E1 e2=E2 pair=cross "
                          "level1=upper level2=lower\n")
    varied = parse_skd(DISK_TEXT + "　disk D\tlevel2=LOWER pair=Cross "
                       "e2=E2 level1=uPPER e1=E1#note\n")
    assert fingerprint(varied) == fingerprint(canonical)


@pytest.mark.parametrize("value", ["croſſ", "CROſſ"])
def test_case_folding_is_ascii_only(value):
    # "ſ" (long s) folds to "s" under Unicode rules, but not under str.lower
    with pytest.raises(ParseError, match="not a valid Pairing"):
        parse_skd(DISK_TEXT + f"disk D e1=E1 e2=E2 pair={value} "
                  "level1=upper level2=upper\n")


# one malformed line per `.skd` diagnostic, with the exact (line, column,
# message) of each diagnostic it gives, in order; the text starts with a
# comment line, so the first record is on line 2
ORACLE_FP = "0123456789abcdef" * 4
GOLDEN_DIAGNOSTICS = [
    ("triple T1", [(2, 1, "triple record needs: triple <id> lines=<t>,<t>,<t>")]),
    ("triple T1 lines=bm,bt", [(2, 1, "a triple point has exactly three lines")]),
    ("triple T1 lines=bm,xx,mt",
     [(2, 20, "unknown line type 'xx' (expected bm, bt or mt)"),
      (2, 1, "a triple point has exactly three lines")]),
    ("triple T1 lines=xx,yy",
     [(2, 17, "unknown line type 'xx' (expected bm, bt or mt)"),
      (2, 20, "unknown line type 'yy' (expected bm, bt or mt)"),
      (2, 1, "a triple point has exactly three lines")]),
    ("triple T! lines=bm,bt,mt", [(2, 8, "bad id 'T!'")]),
    ("branch", [(2, 1, "branch record needs: branch <id>")]),
    ("branch B!", [(2, 8, "bad id 'B!'")]),
    ("circle C1 C2", [(2, 1, "circle record needs: circle <id>")]),
    ("circle C!", [(2, 8, "bad id 'C!'")]),
    ("edge E1 B:B1", [(2, 1, "edge record needs: edge <id> <endpoint> <endpoint>")]),
    ("  edge E1 B:b! B:B2", [(2, 11, "bad branch id in endpoint 'B:b!'")]),
    ("edge E1 T:T1 B:B2",
     [(2, 9, "endpoint 'T:T1' is not of the form T:<id>.<line>.<a|b>")]),
    ("edge E1 T:T!.0.a B:B2", [(2, 9, "bad triple point id in endpoint 'T:T!.0.a'")]),
    ("edge E1 T:T1.3.a B:B2",
     [(2, 9, "endpoint 'T:T1.3.a': line index must be 0, 1 or 2")]),
    ("edge E1 T:T1.0.c B:B2", [(2, 9, "endpoint 'T:T1.0.c': slot must be a or b")]),
    ("edge E1 X:T1 B:B2", [(2, 9, "endpoint 'X:T1' must start with B: or T:")]),
    ("edge E! B:B1 B:B2", [(2, 6, "bad id 'E!'")]),
    ("disk", [(2, 1, "disk record needs an id")]),
    ("disk D1 e1=E1 e1=E2", [(2, 15, "bad or repeated key=value token 'e1=E2'")]),
    ("disk D1 e1=E1 e2=E2 pair=cross level1=upper",
     [(2, 1, "disk record: missing level2")]),
    ("disk D1 e1=E1 e2=E2 pair=cross level1=upper level2=upper x=y",
     [(2, 1, "disk record: unknown x")]),
    ("disk D1 e1=E1 pair=cross level1=upper level2=upper x=y",
     [(2, 1, "disk record: missing e2; unknown x")]),
    ("disk D1 e1=E1 e2=E2 pair=bogus level1=upper level2=upper",
     [(2, 1, "disk record: 'bogus' is not a valid Pairing")]),
    ("disk D1 e1=E1 e2=E2 pair=cross level1=up level2=upper",
     [(2, 1, "disk record: 'up' is not a valid Level")]),
    ("disk D! e1=E1 e2=E2 pair=cross level1=upper level2=upper", [(2, 6, "bad id 'D!'")]),
    ("oracle abc trivial",
     [(2, 8, "oracle fingerprint 'abc' is not 64 lowercase hex digits")]),
    (f"oracle {ORACLE_FP} maybe",
     [(2, 1, "oracle record needs: oracle <fingerprint> trivial|nontrivial")]),
    (f"oracle {ORACLE_FP} trivial\noracle {ORACLE_FP} nontrivial",
     [(3, 1, f"oracle {ORACLE_FP} is nontrivial here but trivial on line 2")]),
    ("circle C1\ncircle C1", [(3, 8, "duplicate edge id 'C1' (first defined on line 2)")]),
    ("frob X", [(2, 1, "unknown record kind 'frob'")]),
    # a token whose text also occurs earlier in its line is placed at its own offset
    ("branch b\nbranch b", [(3, 8, "duplicate branch id 'b' (first defined on line 2)")]),
    ("oracle r trivial", [(2, 8, "oracle fingerprint 'r' is not 64 lowercase hex digits")]),
    ("triple T1 lines=t,bm,mt",
     [(2, 17, "unknown line type 't' (expected bm, bt or mt)"),
      (2, 1, "a triple point has exactly three lines")]),
    ("disk d e1=E1 d", [(2, 14, "bad or repeated key=value token 'd'")]),
    ("edge e T:e.0.a e", [(2, 16, "endpoint 'e' must start with B: or T:")]),
    ("circle C1\n  circle C1", [(3, 10, "duplicate edge id 'C1' (first defined on line 2)")]),
]


@pytest.mark.parametrize("text, diagnostics", GOLDEN_DIAGNOSTICS)
def test_diagnostics_keep_their_wording_columns_and_order(text, diagnostics):
    for check in (False, True):
        with pytest.raises(ParseError) as info:
            parse_skd_document(f"# golden\n{text}\n", check=check)
        assert info.value.diagnostics == tuple(diagnostics)
