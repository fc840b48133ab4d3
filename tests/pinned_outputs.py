"""Outputs pinned byte for byte; refactors of the class-group path must keep them.

SEARCH_26_CSV is `twistsel search` on curve 26 [1,-1,1,-3,3], ell = 7, d in
[-120, -3], CSV format: S_E = {13} is nonempty, so every row runs the ray-class
connecting map and the sandwich is NotApplicable. The CHECK_* strings are the
`twistsel check` JSON lines for one d with nonempty and one with empty S_E.

FACTOR_SHAPE_SHA256 is the SHA-256 of the concatenated `twistsel factor-shape`
JSON lines for the FACTOR_SHAPE_CURVES, in order, each at the FACTOR_SHAPE_ARGS
(ell, degree bound) pairs, in order. TORSION_FIELD_SHA256 is the SHA-256 of
`twistsel torsion-field` on curve 26 for TORSION_FIELD_FACTOR, the degree-12
factor of its psi_5 (a degree-24 tower). Refactors of bounded Zassenhaus must
keep both. FACTOR_SHAPE_GRID_SHA256 is the same digest over the whole grid: the
FACTOR_SHAPE_CURVES, in order, each at every ell of FACTOR_SHAPE_GRID_ELLS
and, within it, every bound of FACTOR_SHAPE_GRID_BOUNDS. The degree analysis
reads different primes on some of these calls than on the FACTOR_SHAPE_ARGS
ones, so refactors of its stop rule must keep it too.

CLASSGROUP_SHA256 is the SHA-256 of "<exit code>:<stdout>" of `twistsel
classgroup --D D` for every D from -3 down to -3000, in that order (D = 2, 3
mod 4 give exit 1 and no output). Refactors of the class group structure must
keep it.

RAYCLASS_SHA256 is the SHA-256 of "<exit code>:<stdout>:<stderr>" of `twistsel
rayclass --format json` for each RAYCLASS_ARGS (ell, --s) pair, in order, and
within it every d from -5 down to -1500. Refusals (d not squarefree, p
ramified) are pinned with their messages. Refactors of the ray-class
connecting map must keep it.

The EXPLAIN_*_SHA256 digests are the SHA-256 of the stdout of `twistsel
search --explain --format csv`, so they pin every verdict-bearing field,
failed-clause lists included, for each EXPLAIN_ARGS entry: 11a3 with ell = 5
over [-3000, -3], curve 26 with ell = 7 over [-2000, -3], and 11a3 with the
order-5 character mod 25 as the ramification predicate (it puts 11 into S_E,
so every row is NotApplicable). Refactors of the admissibility clauses must
keep them.

CHARACTER_REFUSALS pins `twistsel check --curve "[0,-1,1,0,0]" --ell 5 --d -37
--character SPEC` for each refused SPEC: exit 1, empty stdout and this stderr.
CHARACTER_ACCEPTED_SHA256 gives, for each accepted SPEC, the SHA-256 of the
stdout of the same command, which exits 0 with empty stderr. Refactors of the
character validation must keep both.

SEARCH_FORMAT_PINS gives, for `twistsel search` over SEARCH_FORMAT_RANGE on
11a3 with ell = 5 and on curve 26 with ell = 7, in each --format, each --mode
and with and without --explain, the SHA-256 of its stdout; every such call
exits 0 with empty stderr. CHECK_PINS gives, for `twistsel check` on one d in
one --format, the exit code and the SHA-256 of stdout: the text form of an
admissible d, the JSON of an inadmissible one, and the JSON of curve 26 at
d = -1, whose ray-class bound is undetermined (exit 3). It also gives `check`
in JSON and text on two curves whose hypothesis report is printed instead:
[0,0,0,0,1] with ell = 5, which has no rational 5-torsion point (exit 2), and
50b1 [1,1,1,-3,1] with ell = 5, whose kernel clause runs the bad-reduction
branch (type II) and whose ordinary clause is undetermined (exit 3).
Refactors of the result schema must keep them all.

HYPOTHESIS_PINS gives the JSON of `hypothesis_check(E, ell).to_dict()`, with
sorted keys and no spaces, for 11a3 with ell = 5 (good reduction, ordinary
decided from a_5) and for [-4,-5,-5,0,0] with ell = 5 (split multiplicative
at 5, so the ordinary clause is vacuous). Refactors of the hypothesis check
must keep them.
"""

SEARCH_26_CSV = (
    "d,D,h,ell_rank,selmer_lb,verdict,failed_clauses\n"
    "-5,-20,2,1,7,NotApplicable,\n"
    "-17,-68,4,0,1,NotApplicable,\n"
    "-29,-116,6,0,1,NotApplicable,\n"
    "-33,-132,4,1,7,NotApplicable,\n"
    "-37,-148,2,1,7,NotApplicable,\n"
    "-41,-164,8,1,7,NotApplicable,\n"
    "-53,-212,6,0,1,NotApplicable,\n"
    "-57,-228,4,1,7,NotApplicable,\n"
    "-61,-244,6,0,1,NotApplicable,\n"
    "-69,-276,8,0,1,NotApplicable,\n"
    "-73,-292,4,1,7,NotApplicable,\n"
    "-85,-340,4,1,7,NotApplicable,\n"
    "-89,-356,12,1,7,NotApplicable,\n"
    "-93,-372,4,1,7,NotApplicable,\n"
    "-97,-388,4,1,7,NotApplicable,\n"
    "-101,-404,14,1,7,NotApplicable,\n"
    "-109,-436,6,1,7,NotApplicable,\n"
    "-113,-452,8,0,1,NotApplicable,\n"
)

CHECK_26_D5 = (
    '{"clauses":[{"cite":"d < 0","detail":"d = -5","id":"domain.negative","pass":true},'
    '{"cite":"d squarefree","detail":"d = -5","id":"domain.squarefree","pass":true},'
    '{"cite":"d = 3 (mod 4)","detail":"d mod 4 = 3","id":"domain.congruence","pass":true},'
    '{"cite":"gcd(d, ell N) = 1",'
    '"detail":"gcd(-5, 7*26) = 1","id":"domain.coprime","pass":true},'
    '{"cite":"primes above 2 in the conductor ramify in Q(sqrt(d))",'
    '"detail":"automatic for d = 3 (mod 4): the field discriminant is 4d","id":"dyadic.ramified","pass":true},'
    '{"cite":"prime 13 lies in the exceptional set; no symbol condition",'
    '"detail":"exempt: ramification is permitted here","id":"symbol.13","pass":true}],'
    '"curve":"[1,-1,1,-3,3]","d":-5,"ell":7,"overall":"Admissible","ray_rank":1,"s_used":[13],'
    '"selmer_lower_bound":7,"verdict":"NotApplicable"}'
)

CHECK_11A3_D181 = (
    '{"bounds":[5,25],"clauses":[{"cite":"d < 0",'
    '"detail":"d = -181","id":"domain.negative","pass":true},{"cite":"d squarefree",'
    '"detail":"d = -181","id":"domain.squarefree","pass":true},{"cite":"d = 3 (mod 4)",'
    '"detail":"d mod 4 = 3","id":"domain.congruence","pass":true},'
    '{"cite":"gcd(d, ell N) = 1",'
    '"detail":"gcd(-181, 5*11) = 1","id":"domain.coprime","pass":true},'
    '{"cite":"quadratic symbol at 11 must be Inert",'
    '"detail":"split multiplicative at 11; symbol: Inert","id":"symbol.11","pass":true}],'
    '"curve":"[0,-1,1,0,0]","d":-181,"ell":5,"overall":"Admissible","ray_rank":1,"s_used":[],'
    '"selmer_lower_bound":5,"verdict":"SelmerNontrivial"}'
)

FACTOR_SHAPE_CURVES = (
    "[0,-1,1,0,0]",
    "[1,-1,1,-3,3]",
    "[0,0,0,13674069,324405221670]",
    "[0,0,0,2,3]",
    "[0,0,0,1,0]",
)
FACTOR_SHAPE_ARGS = ((5, 1), (7, 6), (13, 12))
FACTOR_SHAPE_SHA256 = "98fcbfc01306227ccc465e30d7b2daf072efd0d72b4535ae96294441871fe9b7"
FACTOR_SHAPE_GRID_ELLS = (3, 5, 7, 11, 13)
FACTOR_SHAPE_GRID_BOUNDS = (1, 2, 3, 6, 12)
FACTOR_SHAPE_GRID_SHA256 = "1075c73986d6d5330ac80a3078c2feb60a48dae75d6fc5ab6847a8ab3105c084"

TORSION_FIELD_FACTOR = "[-10945,12285,26150,-61715,49015,-20358,4380,2370,-3435,1385,-146,-15,5]"
TORSION_FIELD_SHA256 = "42b07b785f5a3ea4ff71363a4768986d0583480acf7be49dc5c27f68800627aa"

RAYCLASS_ARGS = ((3, "5"), (7, "13"), (3, "5,7"), (5, "3,31"))
RAYCLASS_SHA256 = "60efa9827984fb0f215074c2c8773f9afccec125ac11ee7a810e038052778ca3"

CLASSGROUP_SHA256 = "e9da20d971bfe5ffa62928c9e605f0ddf760859badb5d3042d4d57500f6fce48"

EXPLAIN_ARGS = (
    ("[0,-1,1,0,0]", "5", "-3000:-3", None),
    ("[1,-1,1,-3,3]", "7", "-2000:-3", None),
    ("[0,-1,1,0,0]", "5", "-3000:-3", "25:1"),
)
EXPLAIN_SHA256 = (
    "2b0c8cd9557c31354878b74fdf0fbcb6290c77790ba1d392629be973a139450d",
    "866141dddb9338d0619e0b34cbbfaff0976dd59aaa51f0195266cb92651d7b6a",
    "4ee5056cfc3d8146dad352c1469bd3eb92fe7a8d9054249a16515c9e0bf36499",
)

CHARACTER_REFUSALS = (
    ("0:1", "error: modulus must be positive\n"),
    ("11:1,1", "error: need 1 exponent(s) for the generators of (Z/11)*\n"),
    ("7:1", "error: exponents do not define a character on the group\n"),
    ("11:0", "error: character is trivial; order must be exactly ell\n"),
    ("22:1", "error: character is induced from a smaller conductor\n"),
    ("121:1", "error: character is induced from a smaller conductor\n"),
)
CHARACTER_ACCEPTED_SHA256 = (
    ("11:1", "e79df9c5e880a83e47d2c666c64e78d9cd131ef6d5c37e42826998527e705c65"),
    ("25:1", "6e1a08e001a62e4a528e60adb6e62298cfd251d2c71f84bee7192090b0c70737"),
)

SEARCH_FORMAT_RANGE = "-600:-3"
# (curve, ell, format, mode, explain, SHA-256 of stdout)
SEARCH_FORMAT_PINS = (
    ("[0,-1,1,0,0]", "5", "json", "CorollaryE", False, "d163350ad708e56b8d2e7cac702bf59c1e85011fcb878dd7703283cd095d0011"),
    ("[0,-1,1,0,0]", "5", "json", "CorollaryE", True, "bdca6486941ed74115a2f6498b56d4ef1b165f171381eeeba4e6fb1d584ade6a"),
    ("[0,-1,1,0,0]", "5", "json", "LowerBoundOnly", False, "4139ef926e21841b3635752720613996188ae9c530f6d78bff82722aee1040fd"),
    ("[0,-1,1,0,0]", "5", "json", "LowerBoundOnly", True, "af7642a308e20393822565e8d5640e2c045d2585a4ab2e7ce9f1852f547e5e7e"),
    ("[0,-1,1,0,0]", "5", "text", "CorollaryE", False, "6398d15f5f9bc781bad386e9dbc6c022422d9e4b477a2b7466ab4bbb38672ec3"),
    ("[0,-1,1,0,0]", "5", "text", "CorollaryE", True, "b3614fdddea6b59803763c210e3eb08b0da49e1b77521f90804e00f36998bc42"),
    ("[0,-1,1,0,0]", "5", "text", "LowerBoundOnly", False, "aaa49806a4db9e394a4737ab77a5c419cbfc30f97a850add706609b1390b294b"),
    ("[0,-1,1,0,0]", "5", "text", "LowerBoundOnly", True, "02e7ee08867abb5f25dd67576c9a4ea4e5ac585ba2b500ec45547ff9e582823b"),
    ("[0,-1,1,0,0]", "5", "csv", "CorollaryE", False, "5c84e1e3d76df758e38d674a415bd151efc941fd616fc9bf61337c52fc5505c1"),
    ("[0,-1,1,0,0]", "5", "csv", "CorollaryE", True, "3fb32b1acaef7d7cdd9061f90b54d2d878e5b90b4521b4f36e3dae118a1656f4"),
    ("[0,-1,1,0,0]", "5", "csv", "LowerBoundOnly", False, "17d1ca56b2f693da1fd131add644356af8dfd097745230af9af921ba543952f2"),
    ("[0,-1,1,0,0]", "5", "csv", "LowerBoundOnly", True, "f926b55e62ee498af3aaa0ca670d8f336964d6b994527cbb3b15609e6fb773a0"),
    ("[1,-1,1,-3,3]", "7", "json", "CorollaryE", False, "d1245a8e1cb75bcc580eb8b61cba6e3c73f0ff4d85da40bd3b518ef2afb40aa6"),
    ("[1,-1,1,-3,3]", "7", "json", "CorollaryE", True, "d1245a8e1cb75bcc580eb8b61cba6e3c73f0ff4d85da40bd3b518ef2afb40aa6"),
    ("[1,-1,1,-3,3]", "7", "json", "LowerBoundOnly", False, "00b006bf1a5bd2badfc6363cf0eca9c17d2dc9cc5730702b9011bdc4bf47c4be"),
    ("[1,-1,1,-3,3]", "7", "json", "LowerBoundOnly", True, "00b006bf1a5bd2badfc6363cf0eca9c17d2dc9cc5730702b9011bdc4bf47c4be"),
    ("[1,-1,1,-3,3]", "7", "text", "CorollaryE", False, "024a27da16d27c85f5261fb4db7ba817d26486d9f2d237f0336f7e12e032bfbf"),
    ("[1,-1,1,-3,3]", "7", "text", "CorollaryE", True, "024a27da16d27c85f5261fb4db7ba817d26486d9f2d237f0336f7e12e032bfbf"),
    ("[1,-1,1,-3,3]", "7", "text", "LowerBoundOnly", False, "d00aaa17241482add4801ca326d157919dfea04a35ca12f5098d45f59c06d79d"),
    ("[1,-1,1,-3,3]", "7", "text", "LowerBoundOnly", True, "d00aaa17241482add4801ca326d157919dfea04a35ca12f5098d45f59c06d79d"),
    ("[1,-1,1,-3,3]", "7", "csv", "CorollaryE", False, "60f3c263c1b0de5cb171cb3ab52e6793d49b3edaf9e2149fc03369db4e7bdb35"),
    ("[1,-1,1,-3,3]", "7", "csv", "CorollaryE", True, "60f3c263c1b0de5cb171cb3ab52e6793d49b3edaf9e2149fc03369db4e7bdb35"),
    ("[1,-1,1,-3,3]", "7", "csv", "LowerBoundOnly", False, "0b91b6c739e5c6c4c4e278dded20eb969343efae9272f8b82f283966f63db3ad"),
    ("[1,-1,1,-3,3]", "7", "csv", "LowerBoundOnly", True, "0b91b6c739e5c6c4c4e278dded20eb969343efae9272f8b82f283966f63db3ad"),
)

# (curve, ell, d, format, exit code, SHA-256 of stdout)
CHECK_PINS = (
    ("[0,-1,1,0,0]", "5", "-37", "text", 0, "25cae19c893c744ff50ab9e8b6a64a5e2f9a1648c273bc8358ce0d4a34fcb09b"),
    ("[0,-1,1,0,0]", "5", "-13", "json", 0, "090caac903af9b775aacf63a436ee112a73b86d564ad2024d6f80edd872f8a29"),
    ("[1,-1,1,-3,3]", "7", "-1", "json", 3, "67ca0340114cd63e19caf7a3fbc05f5267498b93fb65d27e97f9a52b95ac8eb9"),
    ("[0,0,0,0,1]", "5", "-37", "json", 2, "1960c218e65e357a234882cd13e8300a104a67145ba448ac90f39711048018cb"),
    ("[0,0,0,0,1]", "5", "-37", "text", 2, "e48b65ced41ab94acb3f0007a603cdfd2bba7606aa5d331ff31ab9f2f7498f7c"),
    ("[1,1,1,-3,1]", "5", "-37", "json", 3, "ec55524b52efba856a849628e433d0eb057e69d574d3a73b36295f6981a9d1a4"),
    ("[1,1,1,-3,1]", "5", "-37", "text", 3, "185085e21c61fcf4aaf22dd7b39614bd4c2d015d7c9306b438ec5d03094c60c7"),
)

# (curve, ell, JSON of hypothesis_check(E, ell).to_dict())
HYPOTHESIS_PINS = (
    (
        "[0,-1,1,0,0]",
        5,
        '{"checks":[{"cite":"rational point of odd prime order 5",'
        '"detail":"P = (0,0) has exact order 5","id":"hypothesis.torsion","pass":true},'
        '{"cite":"P not in the kernel of reduction mod 5",'
        '"detail":"good reduction at 5; ord_5(x(P)) on the minimal model decides",'
        '"id":"hypothesis.kernel","pass":true},'
        '{"cite":"E not supersingular mod 5 when ord_5(j) >= 0",'
        '"detail":"good reduction, a_5 = 1","id":"hypothesis.ordinary","pass":true}],'
        '"curve":"[0,-1,1,0,0]","ell":5,"ok":true,"torsion_point":"(0,0)"}',
    ),
    (
        "[-4,-5,-5,0,0]",
        5,
        '{"checks":[{"cite":"rational point of odd prime order 5",'
        '"detail":"P = (0,5) has exact order 5","id":"hypothesis.torsion","pass":true},'
        '{"cite":"P not in the kernel of reduction mod 5",'
        '"detail":"bad reduction at 5 (I5); x-valuation test on the minimal model",'
        '"id":"hypothesis.kernel","pass":true},'
        '{"cite":"E not supersingular mod 5 when ord_5(j) >= 0",'
        '"detail":"vacuous: ord_5(j) < 0","id":"hypothesis.ordinary","pass":true}],'
        '"curve":"[-4,-5,-5,0,0]","ell":5,"ok":true,"torsion_point":"(0,5)"}',
    ),
)
