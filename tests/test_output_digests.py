"""Byte identity of `cuspsoliton all`: the SHA-256 of every file it writes
in csv and in plot format, the manifest aside, and the stepper's counters.

The digests were recorded on x86-64 with numpy 2.4.6 (every file derived
from the orbit once its middle leg became one Taylor run, delta.json once
sigma' came from the field's jet, psi_scans.json once its t = 0 tail_match
became null, h and the asymptotics once h, f, the cusp deviation and the
flow time came from one Chebyshev table per sample interval, f and the
identities once that table's matrix was rounded once from exact entries,
the histories once r(t) took its Newton steps on the table's own
interval, asymptotics.json once log_F_slope became F'/F at the probe,
with no fitted alpha_fit, the blowup, isocline and psi tables at commit
72e7dc3), and
they pin that platform: the libm and numpy of another may move last bits.
A deliberate change of any output edits these tables.
"""

import hashlib
import json

import pytest

from cuspsoliton.cli import main

_REPORTS = {
    "asymptotics.json":
        "b33da27e12fc6075737c7ebaf7cc4821fa0360368fd0784faed1264caf7e0009",
    "barriers.json":
        "77ace2960d0084ea7cc2166d075dfbb93a2828d38221ed31ebe70466e547aad1",
    "blowup.json":
        "49dc37ab175599cb3f4886dcd610debd0e3a369b70dae0d6a5a867830bf9d5e2",
    "blowup_generic.txt":
        "1ff1ad78a24ad8da5596d3dfee2d962b76fae840b4c4647bf5ccad2c5945ccea",
    "blowup_t0.txt":
        "3d6688b9ce846d23492bbdf774d54077155d5bc4c3b5734447cb264256e0b349",
    "crossings.json":
        "782660b17982392a7403d5a0252f6a6ccbc8b7d60d75e6a2460ea02742a02f0c",
    "delta.json":
        "5179a85df03c81df28e066eef31bdc169bf574b61babf9d40b534df3690f63b2",
    "identities.json":
        "e4f0e4c1f0f7d9d7cb349b3ccecb4b6fa374bab76dc77be4020a2e017088b708",
    "psi_scans.json":
        "a490faa26a8caa7aed7b0c70c5d108a6b63d959a647bfb63ef571cfecf427149",
}
_TABLES = {
    "csv": {
        "curvature.csv":
            "37cd051d4915694c88ede14d317df2d785dec374f000d3910a431b286f99bd46",
        "histories.csv":
            "11b4cfb85c7bc32f5167396d3019b85066a746758344b4191d90571a6a94afb3",
        "isoclines.csv":
            "b6b775f542ef0b849dc2a9426e45465dfbe3ac0f9aab804bd91f622a876a1731",
        "psi_t_m0_200.csv":
            "ae9bfc3b3f421c2b979e0fea6369ba58bb96564b6804b43e92514cc858ecd81f",
        "psi_t_m0_700.csv":
            "715a564662b51d0e91415354c1b6831fd9d9ed6a0957bc5a2751974438ccdc0d",
        "psi_t_p0_000.csv":
            "4de0bafc04826ee9990a431681b6fb3290a6ea9fd6f124cb52225019eefcb7fd",
        "psi_t_p10_000.csv":
            "d7690060722256cd8dd69697653ac333fa70f9476436945b9825e47c29950f52",
        "psi_t_p1_000.csv":
            "785ccb6ede3bdf06ddb54755fd8dc7fa9319eb038d661582ff064b1ef73288ac",
        "separatrix.csv":
            "4094c6b88480078f5e5c4d788390f5270ea5ac5a870402e435a55223d086e59e",
    },
    "plot": {
        "curvature_r_R.dat":
            "4b2e688f5fc7592c42a73e3f5837459826f423f7c2235a39fca366435b05fca2",
        "curvature_r_Ric_rr.dat":
            "d6be7383a8dd6577651dcf68be5bf5fb04cb546c22b62bc4a835857519c46f1e",
        "curvature_r_Ric_tangential.dat":
            "a347a85643323ed3070e81270704b1d96ab3c9b279df2b13ea305006298617e6",
        "curvature_r_grad_f_sq.dat":
            "fc2c21cdd31ead857a492a7c47e32019af110e50d1b7bbe120f93e8664a74698",
        "curvature_r_laplace_f.dat":
            "38437aceeb69cd00b8c89e38e939c223a1384e25630c3eedf594935b6f8f53f0",
        "curvature_r_sec_rx.dat":
            "a5a65cc8a64feba45d8b76591dc02be1ed3c2bc0ee13b6ae4543dc3281991c5f",
        "curvature_r_sec_xy.dat":
            "6a14454fd6611caed9467f377bd8ed8200af8a9f03ad3a0b78a2e4c23f9e0a84",
        "histories_t_R.dat":
            "4355f109314c653197a44b8679577ec0214cb8797e6a257cda926282a81a4844",
        "histories_t_dRdt.dat":
            "18afb68c21a61b7b822907f1e04e0fb33cb65b394f5369447dd54aba677e93e1",
        "histories_t_r0.dat":
            "f7a6ecfa69e1a7d4173d07453b84f7a386126e9f2efa8b09acaed329ce9ce432",
        "histories_t_r_of_t.dat":
            "36b5596f9a1c22aa7658ebc7e5d97c2085e3d16b750516ce4cb060a09d8439f8",
        "isoclines_H_F_horizontal.dat":
            "f0fb06e03a08febbfcbdea1d6dd29f6b78c7b9abcc9672388b966422403934b1",
        "isoclines_H_F_oblique.dat":
            "0c3b950d50d8409ef4141d15064dd35f761fb2344736153c3d8d8e0c6bb19690",
        "isoclines_H_F_vertical.dat":
            "abc75ccb83f394d0c8f2c6d1ac7080189412372470b88864678834d000b62820",
        "psi_t_m0_200_y_psi.dat":
            "90027b1481b1a37a9ed6bbcae05c4a2eb203bc354ba22c10c05ca8e27163e783",
        "psi_t_m0_700_y_psi.dat":
            "be4fefab91854d6320fa0441be048285f32ab4bf20a610c6899cf9fd0f3705be",
        "psi_t_p0_000_y_psi.dat":
            "3548d32d2e1857d8ace5b238ccb097ae817efaa3bfc9a8d6f7e6bcd91e926147",
        "psi_t_p10_000_y_psi.dat":
            "39096f48f377f94710ca4aa00a928f18c2f0b2460badf6cbd9e7e21c71464069",
        "psi_t_p1_000_y_psi.dat":
            "2614c2854b780e4921790ad356732d6264a3ce1a8b6f5e139d320b97efdb9594",
        "separatrix_r_F.dat":
            "3e0ea051c74a3c4c38b90b5796dae0924654b5f9020992085af7fb692e8ab112",
        "separatrix_r_H.dat":
            "4aff8183205ecb1c49bfae5e8e92cffd0710418797f672713ac24b2b2b60fd3f",
        "separatrix_r_f.dat":
            "535bc2f3827ca4c99cd06c083a7abca9c0c560ad75d5a5055434b261463382d9",
        "separatrix_r_h.dat":
            "90713c3203d591b60da8176f00ed7184239e11ad9a51604d03faa0f2c59808ee",
    },
}


@pytest.mark.parametrize("fmt", ["csv", "plot"])
def test_all_writes_the_pinned_bytes(tmp_path, fmt):
    assert main(["all", "--out", str(tmp_path), "--format", fmt, "--quiet"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if p.name != "manifest.json"}
    assert written == {**_REPORTS, **_TABLES[fmt]}
    legs = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]["legs"]
    assert [leg["method"] for leg in legs] == ["series", "taylor", "germ"]
    assert (legs[1]["n_steps"], legs[1]["order"]) == (57, 13)
