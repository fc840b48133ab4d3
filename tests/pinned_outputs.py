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
