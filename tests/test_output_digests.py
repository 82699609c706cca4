"""Byte identity of `cuspsoliton all`: the SHA-256 of every file it writes
in csv and in plot format, the manifest aside, and the stepper's counters.

The digests were recorded at commit 72e7dc3 on x86-64 with numpy 2.4.6,
and they pin that platform: the libm and numpy of another may move last
bits.  A deliberate change of any output edits these tables.
"""

import hashlib
import json

import pytest

from cuspsoliton.cli import main

_REPORTS = {
    "asymptotics.json":
        "8e0a58c121594ace9525f2476ebcd936ea14bffc4cea6022cb5df822c6672a7e",
    "barriers.json":
        "5a185fc99d7712045631c266b7204741969c37271d21f6b91b3e2c9f871ae2cb",
    "blowup.json":
        "49dc37ab175599cb3f4886dcd610debd0e3a369b70dae0d6a5a867830bf9d5e2",
    "blowup_generic.txt":
        "1ff1ad78a24ad8da5596d3dfee2d962b76fae840b4c4647bf5ccad2c5945ccea",
    "blowup_t0.txt":
        "3d6688b9ce846d23492bbdf774d54077155d5bc4c3b5734447cb264256e0b349",
    "crossings.json":
        "ba176112d47070077b6df755cf30247a95fb584ac935c1bb2aaf4e8152b74f99",
    "delta.json":
        "1ad1e949bed72152ac9d09c64519147404ccd1779fc6f2611c163f23c36002c1",
    "identities.json":
        "36ea10d7bc1e1145460e53b85f2e8f8c300a058b64c4677dc9260ce86f228162",
    "psi_scans.json":
        "e980487450e29fe4b7ac2af6a0ed5ce8c6ae21c296bd61700b2d42874aee0f07",
}
_TABLES = {
    "csv": {
        "curvature.csv":
            "8355f68f03087b29ab4aa2946a51c275a786fb6ac5158dc80b55e495bdf794cd",
        "histories.csv":
            "d41eac73f4ccad561cdc17413e8a982b26594248fb6479613e1edf097ca9e2b8",
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
            "9a6ed5e03a59ce99f1906a8b979f6382c3fc95ac1a3e846df8f1614d70d8870f",
    },
    "plot": {
        "curvature_r_R.dat":
            "2f23e35dc47002d5ab05fe5be1115abc26424a574714f238b10301097a8200e1",
        "curvature_r_Ric_rr.dat":
            "f434e5b6ef1c40d30e484c9d64f1f0f4547a30c5d3e75ba54e94c53b6dae7cd6",
        "curvature_r_Ric_tangential.dat":
            "4f97f17d4088c159f9f674c591412ca32dca8bed19a48243a02d3081f43bc6c8",
        "curvature_r_grad_f_sq.dat":
            "ab10b107a81e3b4944c404f69d877c38d96dff8d21dbc558abfa4771ac8c19d7",
        "curvature_r_laplace_f.dat":
            "03d9a83fa8a9630a10f5b3d456fe4317f69390ebe77716ddb95f3be0027f0482",
        "curvature_r_sec_rx.dat":
            "9cd990f9aba7980547c0ca18a21846fb5024c9c657fd725d795fb65f62f5d4e2",
        "curvature_r_sec_xy.dat":
            "fae8cc46667b65fe8a41f6bb4943f5692ef272ffeff37ab197056af5c3fc167c",
        "histories_t_R.dat":
            "11896e5fc8cb295847d7e337ccaa77bc538ef46e07da10c5a7ffd44f4c7bd51c",
        "histories_t_dRdt.dat":
            "9177962c852c616b71175951dbaef855a128dd2b16797ef1c2483cfa21518c19",
        "histories_t_r0.dat":
            "58016b95a558b4978b8293d36813b0829f57219b39c96d7e6748ab7cdac347a4",
        "histories_t_r_of_t.dat":
            "84e36dbd548890bc0f60d1dbd029e2a1c85dcb6967cb05b92a79a3db2af94915",
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
            "8ba998cceebbd82664ff532ff5098acac96572c3911abddee2f314bbd02bdf2f",
        "separatrix_r_H.dat":
            "7d1de9e2c2b351830386c690b70f34bd1152576e972e86d0aee8f4d0a166b39a",
        "separatrix_r_f.dat":
            "340d94a40fb208c287123e5fb0baba1998c50ff3e57338e6d0fae203fb9850e4",
        "separatrix_r_h.dat":
            "18b1405406cebec870e86c3a3f63ce6b51e206a80bc6983ff3a420f3e639a729",
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
    assert [(leg["n_steps"], leg["n_rejected"], leg["nfev"]) for leg in legs] == \
        [(5, 0, 77), (293, 13, 4553)]
