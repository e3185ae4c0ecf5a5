"""Golden-report regression: canonical reports of a few fast exact
configurations are frozen by their sha256, so a refactor that changes any
reported byte (apart from the timing and version fields) fails here."""

import hashlib
import json

import pytest

from kummergauss.cli import RunConfig, run
from kummergauss.rings import parse_rational

LAM = tuple(parse_rational(x) for x in ("1/2", "-3", "2/7", "5", "-1"))
ZERO = (0, 0, 0, 0, 0)
# some moduli zero: constant factors and cancelling sums in the ring layer
SPARSE = tuple(parse_rational(x) for x in ("0", "-8/7", "0", "5/8", "0"))

GOLDEN = [
    # numeric lambda: validated orders stop at the level + 1 horizon
    (dict(command="quartic-verify", sigma_level=5, lambdas=LAM),
     "72a077cb8cf79039054352df76403c2dae1c979c34fc195ec91ec24bf0323315"),
    (dict(command="pde-verify", sigma_level=5, lambdas=LAM),
     "413b8b067541b99d990c430b1708964009a3e815e4c6f3308bac0d2cc6a33340"),
    (dict(command="kernel-verify", sigma_level=5, lambdas=LAM),
     "f9b8e48056e32dd8e742aab8178e9f8f70da62016d1e2fa48b6775deef877f72"),
    (dict(command="metric-report", sigma_level=3),
     "8fd5ac0cafe10f93e2c47470c9907b15611d11ab038ceab9fd57dc6b9e752312"),
    (dict(command="ricci-leading", sigma_level=3, max_order=12),
     "44c30700cb3c6011cf2056ebbae07a323583dc383ac2ab152d7c4a450aef101b"),
    (dict(command="inversion-verify", points=3, seed=11, lambdas=ZERO),
     "b69c4e1c9d4b74a532625850a4de9accff452ea9e7f7bb5a1cd52f97e0a414a3"),
    (dict(command="inversion-verify", points=3, seed=11, lambdas=LAM),
     "330aa5000f05410cd51d99abc01422c908adf027e60e9b4b5acf5ed559023520"),
    (dict(command="ricci-point", points=3, seed=11, lambdas=ZERO),
     "146af5e47cd2346cb2b42af2a701baf44d7a5f290cb9867653d9a22456a61f2e"),
    (dict(command="ricci-point", points=3, seed=11, lambdas=LAM),
     "2e921a71e97e3855c971d08558ec61c2f7852aed8b1009c956c5fce7d3255292"),
    (dict(command="metric-report", sigma_level=7, lambdas=LAM),
     "dfa88a991972e401283cb9490aa1ec933fd722b271611d0335918a020147d657"),
    (dict(command="ricci-leading", sigma_level=7, max_order=12, lambdas=LAM),
     "9179dd59d70772b9d0ffbd8b47fcfaf89a6ec0074fa23744d66cd83e473d5aed"),
    # exact Chern number: radius, c1, remainder and limit as "p/q"
    (dict(command="chern"),
     "a103c8ef71797e32966f6f547b5237d63449c0070aac8d9d4b0443249ccb60b1"),
    # exact double-sphere reports: every residual prints as "0/1"
    (dict(command="sphere-verify"),
     "f73390ebc61150678a8fc53d255602a0b01c7ce0b2441c12f17eac874d5ba6bc"),
    (dict(command="kahler-verify"),
     "ea3b13f00e90dce70ba83f55ba5b6d5d3568c1571dc7d90bf07e01156729311b"),
    (dict(command="dz-check", points=3, seed=11, lambdas=ZERO),
     "c473fc32a2fc502b98da0ecc8217613192755ede4ac7c723c6907b3b44caa962"),
    (dict(command="dz-check", points=3, seed=11, lambdas=LAM),
     "5fdc7fab52a91f18d47d75fbaffc6f5c640e96d3086de55e6bd7241f01ce3c16"),
    # numeric lambda at levels 3 and 7, next to the level-5 entries above
    (dict(command="quartic-verify", sigma_level=3, lambdas=LAM),
     "e9f9fcdd63305150edbb71892d5ac3bbd0fdd07ba8dcfcebfac0f8e7952593ba"),
    (dict(command="pde-verify", sigma_level=3, lambdas=LAM),
     "127540fd0bf50e57b24871456b77cedf3f90b9467e11b620d46e7c6fe250fdc7"),
    (dict(command="kernel-verify", sigma_level=3, lambdas=LAM),
     "56ee64766390a8011edb56564b276e72d8ab308b66b667496e2bb8bb47622825"),
    (dict(command="quartic-verify", sigma_level=7, lambdas=LAM),
     "18f245aace57b46dd7b490e1be3e645d02a4a811d2489b6ea3fa5f2ad06d5639"),
    (dict(command="pde-verify", sigma_level=7, lambdas=LAM),
     "563e5fafc8f724ed6dcca3b3d584d003f8777f320a86f358aa8c5c1bf8207c20"),
    (dict(command="kernel-verify", sigma_level=7, lambdas=LAM),
     "66f537fdb861fcbf4d094fd90333913935b7a7470652d9db39acf3f3d3794875"),
    # a zero pattern of the moduli at level 7 (metric-report is qualified)
    (dict(command="quartic-verify", sigma_level=7, lambdas=SPARSE),
     "71b6a2973291ab878fea2d413a646266c94a901c4b998ec8537831aaafeff94e"),
    (dict(command="pde-verify", sigma_level=7, lambdas=SPARSE),
     "4b06665966a1c25cdb6f7459acbd91b90da9dd78969891f5511a2bcf2cd2be53"),
    (dict(command="kernel-verify", sigma_level=7, lambdas=SPARSE),
     "0f3d4a4bc06a73cfd1d0f1b9001ed66f493e3836e31a1a5aec61264836759f9d"),
    (dict(command="metric-report", sigma_level=7, lambdas=SPARSE),
     "05183143c0a011cc632a54d69dfdd5b35faf8db550e0fd28eeeb6da117f30fc0"),
    # every check of one `all` call, at symbolic and at numeric lambda
    (dict(command="all", max_order=9, points=3),
     "829c5a283d698d3c65dcd67e78c2c7046a2a302861142a943542e1793d716569"),
    (dict(command="all", max_order=9, points=3, lambdas=LAM),
     "379d6901d9073cfd48c7afe1fc24add3ac1ec67b835b0097c821608b45d94037"),
]


def report_digest(cfg):
    report, code = run(cfg)
    assert code == 0
    report.pop("wall_time_s")
    report.pop("versions")
    text = json.dumps(report, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "kw,digest", GOLDEN,
    ids=["%s-%d" % (kw["command"], i) for i, (kw, _) in enumerate(GOLDEN)])
def test_report_matches_golden_digest(kw, digest):
    assert report_digest(RunConfig(**kw)) == digest
