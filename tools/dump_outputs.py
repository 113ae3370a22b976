"""Usage: python tools/dump_outputs.py <checkout> <out>

Writes to <out> full-precision reprs of a fixed, seeded call set run on
valdist from <checkout>/src: the README CLI commands and four input
errors, profiles, verifiers, counting functions, the proximity integrand's
nudge and give-up paths, multi-radius m-series (knot ladders around
a-points that hug grid circles, a series whose last radius fails, the
growth workload's 32-point grid), root cancellation, winding counts on contours that
pass close to a root, localize_roots and fta_witness, the latter two also
on integer polynomials of the benchmark's roots workload, fta_witness on
two inputs whose recentred levels have roots on a split line,
build_profile and both fundamental-theorem verifiers on the first block of
its distribution workload, the same three calls twice over on one f for
the targets 0.0 and -0.0 (memo hits), and verify_degree_growth on the
first block of its growth workload. A change meant to keep results passes when `cmp`
finds the dumps of the parent and the change equal.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

checkout, out_path = Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()
sys.path.insert(0, str(checkout / "src"))
import valdist as vd  # noqa: E402
from valdist.cli import main as cli  # noqa: E402

P = vd.Polynomial
FUNCTIONS = {
    "readme": vd.RationalFunction(P([-1, 0, 1]), P([-3, 1])),
    "complex": vd.RationalFunction(P([-0.5, 1 + 2j, 0, 1]), P([0.3j, 0, 1])),
    "pole0": vd.RationalFunction(P([5, 1]), P([0, 2, 1])),
}
# numerator and denominator share roots, so reduction has work to do
CANCELLING = {
    "(z2-1)/(z-1)": vd.RationalFunction(P([-1, 0, 1]), P([-1, 1])),
    "(z2-1)(z-2)/((z-1)(z-3))": vd.RationalFunction(P([2, -1, -2, 1]), P([3, -4, 1])),
}
TARGETS = [0, 0.5, "inf"]
POLYS = {
    "z2+1": P([1, 0, 1]),
    "cubic": P([1, -3, 0, 1]),
    "claim1": P([-1, 0, 3, 1]),
    "double": P([2, -3, 0, 1]),
    "quartic": P([5, 0, 1, 0, 2]),
    "binomial": P([2, 0, 0, 0, 0, 1]),
    "complex6": P([0.3 - 1j, 2j, -1.5, 0.25 + 0.5j, 1, -0.7j, 1.1]),
}
GRID = vd.log_rgrid(1.0, 1e4, 16)
# the growth workload's grid; one quadrature covers all of its radii
GRID32 = vd.log_rgrid(1.0, 1e4, 32)
# zeros and a pole within 1e-6 (relative) of grid circles, inside and
# outside the guard band, so their rows get knot ladders
HUGGING = vd.RationalFunction(
    P.from_roots([GRID[3] * (1 + 3e-8) * 1j**0.25, GRID[7] * (1 - 2e-13) * 1j**1.4, -GRID[10] * (1 + 4e-7)]),
    P.from_roots([GRID[5] * (1 + 5e-10) * 1j**-0.8, 0.3]),
)
# (function, region) pairs whose winding count needs many doublings of the
# trapezoid rule, or ends in ContourTooClose: a root at relative distance
# 1e-3, 1e-5 and 1e-7 inside the unit circle or the unit box, a zero and a
# pole each 1e-4 inside the circle, and roots exactly on the contour
UNIT_DISK, UNIT_BOX = vd.Disk(0j, 1.0), vd.Box(0j, 1.0, 1.0)
CONTOURS = {}
for _rel in (1e-3, 1e-5, 1e-7):
    CONTOURS[f"disk {_rel:g}"] = (P.from_roots([(1 - _rel) * (0.6 + 0.8j), -0.3j]), UNIT_DISK)
    CONTOURS[f"box {_rel:g}"] = (P.from_roots([(1 - _rel) + 0.3j, 0.2 - 0.1j]), UNIT_BOX)
CONTOURS["disk zero/pole"] = (
    vd.RationalFunction(P.from_roots([1 - 1e-4, 0.5j]), P.from_roots([-1j * (1 - 1e-4)])),
    UNIT_DISK,
)
CONTOURS["disk root on a node"] = (P.from_roots([1.0, 0.1]), UNIT_DISK)
CONTOURS["box root on an edge"] = (P.from_roots([1 + 0.3j, 0.1]), UNIT_BOX)
# int_real and int_multi items of the benchmark's roots stream at seed 1:
# all of them among items 0-11, plus #39 and #81. Real roots on the split
# line y = 0 and multiple roots reach the exact-arithmetic Newton step, in
# localize_roots and in the witness's root search, which takes the
# enclosure nearest minus the shift; #1 has a double root at 0 and real
# roots on y = 0 at every level
ROOTS_WORKLOAD = {
    0: [-3, -6, 6, -9, 3, 4, -9, 5, -1, -2],
    1: [0, 0, -1024, 2304, -1408, -32, 188, -23, -6, 1],
    3: [0, -6, 1, 7, 4, 7, -3, 0, 0, 9, 6, 7],
    4: [256, -448, -464, 1244, -128, -1045, 608, 151, -256, 97, -16, 1],
    6: [7, 2, 9, 2, 5, -1, 8, -9, 3, 7, -5, 7, 8],
    7: [0, 0, -432, 216, 1125, -704, -856, 744, 66, -240, 96, -16, 1],
    9: [-4, -4, -1, 7, -4, -1, 0, 5, 1, 6, 6],
    10: [108, 108, -261, -266, 198, 214, -44, -62, -2, 6, 1],
    39: [-1, 3, 9, 3, -4],
    81: [5, 2, 3, -7, 9, -8, -5, -8, 7, 6, 9, -1],
}
# witness inputs whose recentred levels have real roots, on the quadtree's
# first split line y = 0; the first is (z + 3)^2 (z - 2)^3 (z + 1)^2
WITNESS_EDGE = {
    "edge deg7": [-72, -84, 58, 65, -20, -14, 2, 1],
    "edge deg9": [-2, 4, 1, 8, -1, -2, -8, -7, 7, 2],
}
# the first block of the benchmark's distribution stream at seed 1, as
# (numerator, denominator, targets): integer zeros and poles on the
# quadtree's first split line y = 0, whose a-point enumeration splits boxes
# whose four children share each doubling pass of the winding count
DISTRIBUTION_WORKLOAD = {
    0: ([-1, 0, 1], [-3, 1], [0, "inf", 1]),
    1: ([16, -12, 2], [0, 16, 0, -1], [0, "inf", -2j]),
    2: ([36, -15, -18, -3], [12, 3], [0, "inf", 1 - 2j]),
    3: ([18, 3, -12, 3], [16, -4, -2], [0, "inf", 1 - 2j]),
    4: ([4, 3, -1], [18, 0, -2], [0, "inf", 2j]),
    5: ([-16, 4, 2], [9, -3], [0, "inf", 2j]),
    6: ([-4, 1], [-6, 3], [0, "inf", -1 + 2j]),
    7: ([0, 12, -10, 2], [0, -8, 2, 1], [0, "inf", -1 + 2j]),
    8: ([-6, 3], [12, 10, 2], [0, "inf", -1 + 2j]),
    9: ([3, 1], [-48, 28, 2, -2], [0, "inf", 1 + 2j]),
}
# the distribution calls on one f whose numerator has signed zeros, in
# reverse order and then again, for the targets 0.0 and -0.0: the later
# calls read m(r, a) series and root hints that earlier ones memoized
SIGNED_ZEROS = vd.RationalFunction(P([complex(-0.0, -0.0), -4, complex(0.0, -0.0), 1]), P([-3, 1]))
# the first block of the benchmark's growth stream at seed 1: integer and
# complex coefficients (exact reprs) of every degree 2-12, whose 32-radius
# m(r, inf) series are each integrated in one quadrature wave loop
GROWTH_WORKLOAD = {
    0: [-3, -6, 6, -9, 3, 4, -9, 5, -1],
    1: [
        (-0.12820270791035804-0.7092821480708611j), (2.0266293138105116-0.725740095513963j),
        (0.2228662853688409+0.04337085021863684j), (-2.2864992677166316-0.6087532344610592j),
        (-0.5129560146734695+0.47444525859335623j), (-0.21428541330478093+0.1141200958363181j),
        (0.1899101662331788+1.0564284189388011j), (-0.7282786513153757+0.01916722902590574j),
        (0.08427564762421812+0.697636888533994j),
    ],
    2: [5, 0, -9, 4, 8, -6, -4, 0, -6, 1, 7],
    3: [
        (0.9648439706761432-0.40719676966359186j), (0.7179566567448998-1.3052648251099646j),
        (-0.43798300196982975+1.2568213446053613j), (1.4310039880525183-1.3024586211383573j),
        (-1.3328074790889433-0.04426443760183194j), (0.7282413233187197+0.16050467937932975j),
        (0.30355470782698374-0.988836424974613j), (0.5867917138138036+1.1168523411368356j),
        (-0.43567252028398296-1.433488063663466j), (-0.7588208236837489+0.7616580058369826j),
        (-1.733697191836434-0.09187678780560388j),
    ],
    4: [7, 3, 2, 6, -9, 6, -8, 0, 9, 9, 3, -4, -4],
    5: [
        (-2.8357907866800374-0.03988881469206719j), (0.160169789075227-1.2352087440135413j),
        (0.464365222572551-0.5592448043269602j), (-2.459100190276957-0.21331839036794661j),
        (-0.9788457442967794-0.5205958726001464j), (-0.15228441870536935+1.2509753492338231j),
        (0.10314817894159017-0.028485624983674466j), (0.3890044161673872-1.8120923658246146j),
        (1.240123870623568-1.0770869202964841j), (0.439095071135007-1.126780495468637j),
        (-0.9764853646109403-0.39628787527150033j), (1.8957484626184458+0.6976644344684755j),
        (-0.6041964940486672-0.2843102001962331j),
    ],
    6: [7, 4, 6, 2, 4, 2, -9, 8, 8, 1],
    7: [
        (-0.23002781211552978+0.06192481151027361j), (0.07981933215619792+0.6194679040792085j),
        (-1.7133899050529247-1.005477609557734j), (0.5352397587895604-1.7039889787722902j),
        (0.3112854368224163-0.7018782110924412j), (0.8150806394534229-1.2537656212807677j),
        (0.1589509226091244+0.09163831429290607j), (1.6716079422413244+0.15335179025447007j),
        (0.0013337167663952437+0.4815776485420005j), (-0.6506069868124867-0.6489908815182535j),
    ],
    8: [-7, -4, -4, -1, 7, -4, -1, 5],
    9: [
        (-0.3435730196698372-1.119944424661097j), (0.651625655226245+0.5686222027003662j),
        (-0.9871195672304918+1.4855493350914861j), (-0.040435644387653125+0.7635261356691431j),
        (-0.34113701832091553-2.7213080562576892j), (1.038253661680994-0.22822041974664398j),
        (0.706253449199945-0.10934346522446628j), (-0.21428694336913753+0.1612802520349239j),
    ],
    10: [-4, 5, 7, 4, 8, -2],
    11: [
        (1.3968784634435116-0.2034982863551386j), (-0.370545939521914-1.030264479235384j),
        (-0.24691610606420947-0.03735294596532606j), (-0.8198068314937882-1.6065296561342064j),
        (-0.5658423523814902-0.8894479192786328j), (-0.040822885137835725-0.5166805270646477j),
    ],
    12: [-3, -8, -7],
    13: [
        (0.543286290210982-0.6693441863503008j), (1.5318002736004828-0.6144188498749448j),
        (-0.6593020024432616+0.3833838723625657j),
    ],
    14: [-9, 8, -8, 9, -3, 9, 5],
    15: [
        (0.9522555668521416+1.7719485293273365j), (1.5392963823305985-0.25595833619585023j),
        (-0.9729241755770676-0.05430204839857393j), (-0.3883143041731573+0.5567365796216144j),
        (-0.4886271587747469-0.9464985569314426j), (0.16153495354684874+0.4410026542103154j),
        (-0.4222042651401001-0.7238120421941098j),
    ],
    16: [6, -9, 1, 3],
    17: [
        (0.15437178477436897-0.11263515586683809j), (0.27084670997295707+0.8490373221702181j),
        (1.7414900058392688-0.142016904511834j), (-0.36756816323439095+0.5865351049720957j),
    ],
    18: [-6, 3, 8, 2, 8, 6, 8, -2, -7, -8, -7, -5],
    19: [
        (1.0633372445628335+1.92542909860545j), (0.3890573393867014+1.6418025100646438j),
        (-1.5503492111274444-1.129505647524399j), (-0.6164159035530472+0.6722550535990737j),
        (-0.5147838310909897+1.943227477768471j), (-1.972659161294477-1.5100517128307693j),
        (0.40957460671849055-0.3508565139609446j), (-0.4452534127410352-0.14830057157175158j),
        (0.3781687802392049+0.09491651402747682j), (1.174674169051434-1.3128508978133009j),
        (0.4323589270722418-0.8042500140219464j), (-1.307725283655826-1.1556343806158058j),
    ],
    20: [3, -7, 9, 8, -2],
    21: [
        (-2.2576091011653245-0.9932751895287385j), (-0.5531361833235178+0.6282703338025287j),
        (-0.48134282241917625-0.10535378239491769j), (0.38048474906221175-0.28845431970587926j),
        (0.8030207174903166+0.2374178064731583j),
    ],
}
INPUTS = {
    "z2.json": [[0, 0], [0, 0], [1, 0]],
    "cubic.json": [[-1, 0], [0, 0], [3, 0], [1, 0]],
    "readme.json": {"numerator": [[-1, 0], [0, 0], [1, 0]], "denominator": [[-3, 0], [1, 0]]},
}
CLI = [
    ["profile", "--function", "z2.json", "--a", "0,inf", "--out", "tables"],
    ["profile", "--function", "readme.json", "--a", "0,0.5,inf", "--points", "16", "--out", "t2"],
    ["verify", "fft", "--function", "z2.json", "--a", "1", "--out", "fft.json"],
    ["verify", "smt", "--function", "z2.json", "--a", "0,1,inf"],
    ["verify", "smt", "--function", "readme.json", "--a", "0,0.5,inf", "--seed", "3"],
    ["verify", "degree", "--poly", "z2.json"],
    ["verify", "claim1", "--poly", "cubic.json"],
    ["verify", "remark", "--poly", "z2.json"],
    ["verify", "smt", "--function", "z2.json", "--a", "0,inf"],
    ["fta-witness", "--poly", "cubic.json", "--tol", "1e-10", "--out", "witness.json"],
    # input errors: exit 2 with the input check's own message
    ["verify", "fft", "--function", "z2.json", "--a", "1", "--tol", "0"],
    ["fta-witness", "--poly", "cubic.json", "--tol", "-1"],
    ["verify", "remark", "--poly", "z2.json", "--seed", "-1"],
    ["verify", "degree", "--poly", "z2.json", "--rmax", "10"],
]


def show(label, call):
    try:
        value = call()
    except (vd.ValdistError, ValueError) as exc:
        value = f"{type(exc).__name__}: {exc}"
    print(f"## {label}\n{value!r}")


def library():
    for name, f in FUNCTIONS.items():
        show(f"profile {name}", lambda: vd.build_profile(f, TARGETS, GRID, seed=1))
        show(f"fft {name}", lambda: vd.verify_first_fundamental(f, 0.5, GRID))
        show(f"smt {name}", lambda: vd.verify_second_fundamental(f, TARGETS, GRID, seed=2))
        for a in TARGETS:
            show(f"points {name} {a}", lambda: vd.enumerate_a_points(f, a, 50.0))
            for r in (0.5, 3.0, 40.0):
                for fn in (vd.count_n, vd.counting_N, vd.counting_N_integral, vd.proximity_m):
                    show(f"{fn.__name__} {name} {a} {r}", lambda: fn(f, a, r))
        show(f"T {name}", lambda: [vd.characteristic_T(f, r) for r in GRID])
    for name, f in CANCELLING.items():
        show(f"reduce {name}", lambda: vd.reduce_common_roots(f))
        show(f"profile {name}", lambda: vd.build_profile(f, TARGETS, GRID, seed=1))
    # edge paths of the proximity integrand: the a-points +-1 sit on sample
    # angles (nudged samples), |g| overflows on the whole circle at r = 1e200
    # (the nudges give up), and a profile whose grid radius 1 is nudged
    z2 = vd.RationalFunction(P([-1, 0, 1]))
    show("proximity_m z2-1 0 1.0", lambda: vd.proximity_m(z2, 0, 1.0))
    show("proximity_m z2-1 inf 1e200", lambda: vd.proximity_m(z2, "inf", 1e200))
    show("profile z2-1 nudged", lambda: vd.build_profile(z2, [0, "inf"], [0.5, 1.0, 2.0]))
    # the last radius of the series fails after the first one has converged
    show("profile z2-1 last radius 1e200", lambda: vd.build_profile(z2, [0, "inf"], [1.0, 1e200]))
    show("profile hugging", lambda: vd.build_profile(HUGGING, TARGETS, GRID, seed=1))
    for name in ("cubic", "quartic", "complex6"):
        show(f"verify_degree_growth {name} 32", lambda: vd.verify_degree_growth(POLYS[name], GRID32))
    for name, (f, region) in CONTOURS.items():
        show(f"winding {name}", lambda: vd.winding_count(f, region))
    for name, p in POLYS.items():
        show(f"roots {name}", lambda: vd.localize_roots(p, vd.Box(0j, 4.0, 4.0), 1e-10, seed=5))
        show(f"witness {name}", lambda: vd.fta_witness(p, seed=5))
        for fn in (vd.verify_degree_growth, vd.claim1_chain_report, vd.remark_fft_check):
            show(f"{fn.__name__} {name}", lambda: fn(p, GRID))
    for index, coeffs in ROOTS_WORKLOAD.items():
        p = P(coeffs)
        radius = 1.0 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
        show(f"roots workload {index}", lambda: vd.localize_roots(p, vd.Box(0j, radius, radius), 1e-10))
        show(f"witness workload {index}", lambda: vd.fta_witness(p, 1e-10))
    for name, coeffs in WITNESS_EDGE.items():
        show(f"witness {name}", lambda: vd.fta_witness(P(coeffs), 1e-10))
    for index, (num, den, targets) in DISTRIBUTION_WORKLOAD.items():
        f = vd.RationalFunction(P(num), P(den))
        show(f"profile workload {index}", lambda: vd.build_profile(f, targets, GRID))
        show(f"fft workload {index}", lambda: vd.verify_first_fundamental(f, targets[-1], GRID))
        show(f"smt workload {index}", lambda: vd.verify_second_fundamental(f, targets, GRID))
    for zero in (0.0, -0.0):
        targets = [zero, "inf", 1]
        for again in ("", " again"):
            label = f"signed zeros {zero!r}{again}"
            show(f"smt {label}", lambda: vd.verify_second_fundamental(SIGNED_ZEROS, targets, GRID))
            show(f"fft {label}", lambda: vd.verify_first_fundamental(SIGNED_ZEROS, zero, GRID))
            show(f"profile {label}", lambda: vd.build_profile(SIGNED_ZEROS, targets, GRID))
    for index, coeffs in GROWTH_WORKLOAD.items():
        p = P(coeffs)
        show(f"verify_degree_growth workload {index}", lambda: vd.verify_degree_growth(p, GRID32))


def command_line():
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, data in INPUTS.items():
            Path(name).write_text(json.dumps(data))
        for argv in CLI:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli(argv)
            print(f"## valdist {' '.join(argv)}\nexit {code}\n{buf.getvalue()}")
            for path in sorted(q for q in Path(".").rglob("*") if q.is_file() and q.name not in INPUTS):
                print(f"# {path}\n{path.read_text()}")
                path.unlink()


with open(out_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
    library()
    command_line()
