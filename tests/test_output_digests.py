"""Byte identity of `cuspsoliton all`: the SHA-256 of every file it writes
in csv and in plot format, the manifest aside, and the stepper's counters.

The digests were recorded on x86-64 with numpy 2.4.6 (the orbit-derived
files once the cusp end became the unstable manifold's series, delta.json
once t_b was isolated by Sturm sequence, crossings.json once each root was
bracketed on the s* certificate grid, the history files (histories.csv,
histories_t_R.dat, histories_t_dRdt.dat, histories_t_r_of_t.dat) once r(t)
came from a septic start and stopped after one Newton step, the others at
commit 72e7dc3), and they pin that platform: the libm and numpy of
another may move last bits.  A deliberate change of any output edits
these tables.
"""

import hashlib
import json

import pytest

from cuspsoliton.cli import main

_REPORTS = {
    "asymptotics.json":
        "a4ff40052ea8180854526392874992343a19bbe7b798fbe2bc560baa8d3642b6",
    "barriers.json":
        "bf575534ce8e45bcb7d3337abcb303d0288add9a9860d0def99cde04159d6fe2",
    "blowup.json":
        "49dc37ab175599cb3f4886dcd610debd0e3a369b70dae0d6a5a867830bf9d5e2",
    "blowup_generic.txt":
        "1ff1ad78a24ad8da5596d3dfee2d962b76fae840b4c4647bf5ccad2c5945ccea",
    "blowup_t0.txt":
        "3d6688b9ce846d23492bbdf774d54077155d5bc4c3b5734447cb264256e0b349",
    "crossings.json":
        "a56de879b2a98e52ae4d57d7f0ba34527235b2e90507ba99ca6da0d5d75955a0",
    "delta.json":
        "4127044d0e4754bf62656139aef4468d3f6087097a9b6ab52e7c4fa0d0ea14d2",
    "identities.json":
        "c06de7407fb6f2090d26357daa8cb9075f507183ce34b9482e50c1d0b6cf5d04",
    "psi_scans.json":
        "e980487450e29fe4b7ac2af6a0ed5ce8c6ae21c296bd61700b2d42874aee0f07",
}
_TABLES = {
    "csv": {
        "curvature.csv":
            "66f3a4602bee440ae6cbdac01377bbaaf17aa92a1d368d2b0cc24af54e673e4d",
        "histories.csv":
            "171045832d98d0435cbffd101f2c2079d205de2912353020ac931162e681b15c",
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
            "173caa167a0f0925ea369d7d30b4d3b0336b98ab250912a633d9c7bc57d7ff06",
    },
    "plot": {
        "curvature_r_R.dat":
            "4a4fa5b6dff8428c08cf43ee5b79f232205794c2c94e54e2b08aab201311d58a",
        "curvature_r_Ric_rr.dat":
            "457cf2c0693d358355e81846d5528b329e7f9fe08bce44d7651822942950cbf7",
        "curvature_r_Ric_tangential.dat":
            "8be9744124398381d0277e9fc7c3259eb72112957d8bac722658704543b11f41",
        "curvature_r_grad_f_sq.dat":
            "a48f0ed25d8890897042787b4663287cc6575bbea5545c0ac7da3faa41d4c82d",
        "curvature_r_laplace_f.dat":
            "b94f2a10dcb3421b549676ba5f6623f732b2c3400af07c8789aa5bc4af260858",
        "curvature_r_sec_rx.dat":
            "e4b829848b85f9c6b6ddd0d786fe1011dada902ef61185f855b46e3d251fed8e",
        "curvature_r_sec_xy.dat":
            "5e728f0ff4218d086bdfc68defadced0eb48645ce3775a415967d14bca784e26",
        "histories_t_R.dat":
            "6ce2aec8388348c0d1c2435e492ec59238074af97489d75a3870e1065881b308",
        "histories_t_dRdt.dat":
            "e04e5dcc1398aace5627413c7281230cd14b8fd432cf3d011b25de2b74dd0eec",
        "histories_t_r0.dat":
            "627686e64079f49270e217e22d512f2515d368e978722d0220b3685c3e01fb0b",
        "histories_t_r_of_t.dat":
            "18560bece28c22b02dd4064134fb3ab432caf3b3a2227f2188b45e2cd979bda5",
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
            "b9a15b101d3d658520912c1a258b3d68963f5f3406f5fa721e3939fe340faef4",
        "separatrix_r_H.dat":
            "ccf61cec5394b2f5b63a18b0bdbf940cb2a3d7915c3efcef886b3a80a384b452",
        "separatrix_r_f.dat":
            "055bc50efd7e3e6c4b949c8f0b3cefc5bc7df700a19bfb86b36cad444e6bea15",
        "separatrix_r_h.dat":
            "16b4ab6a638613cad888658280b4884a251f39e79428d1fa1dbe20d83a5e0534",
    },
}


@pytest.mark.parametrize("fmt", ["csv", "plot"])
def test_all_writes_the_pinned_bytes(tmp_path, fmt):
    assert main(["all", "--out", str(tmp_path), "--format", fmt, "--quiet"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if p.name != "manifest.json"}
    assert written == {**_REPORTS, **_TABLES[fmt]}
    # every accepted step counts its 12 stages and its 3 dense stages, also
    # when its dense piece is built only after the run
    legs = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]["legs"]
    assert [leg["method"] for leg in legs] == ["series", "DOP853"]
    assert (legs[1]["n_steps"], legs[1]["n_rejected"], legs[1]["nfev"]) == (293, 13, 4553)
