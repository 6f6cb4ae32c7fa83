"""Algorithm 1's outputs, pinned bit for bit.

Cell pins (Step 1 under both check backends), top-level IO pins and the
legacy on-track baseline all enumerate candidates through one coordinate
ladder.  These digests pin what each of them returns -- every access
point, in generation order -- on a real-cell design and two pin-zoo
designs, under the default config, strict via-in-pin and an on-track-
only ladder.  The engine backend must equal the array backend exactly.
"""

import hashlib
import json

import pytest

from repro.bench import build_case
from repro.core import IoPinAccess, PinAccessFramework
from repro.core.baseline import LegacyPinAccess, legacy_io_access
from repro.core.config import PaafConfig
from repro.core.coords import CoordType
from repro.qa.fingerprint import canonical_ap

CONFIGS = {
    "default": {},
    "cut_on_pin": {"require_cut_on_pin": True},
    "on_track": {
        "preferred_types": (CoordType.ON_TRACK,),
        "non_preferred_types": (CoordType.ON_TRACK,),
    },
}


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _by_pin(aps_by_pin: dict) -> dict:
    return {
        pin: [canonical_ap(ap) for ap in aps]
        for pin, aps in aps_by_pin.items()
    }


def _uniques_digest(result) -> str:
    return _sha256({
        ua.unique_instance.representative.name: _by_pin(ua.aps_by_pin)
        for ua in result.unique_accesses
    })


_DIGESTS = {
    ("ispd18_test2", 0.005): {
        "io": {
            "default": "40fd2082c9933cc5be713ba0c855cb1c"
                       "46f3be34da105e7051bf86ed4f4f826c",
            "cut_on_pin": "40fd2082c9933cc5be713ba0c855cb1c"
                          "46f3be34da105e7051bf86ed4f4f826c",
            "on_track": "8b6f6cf9ff60cf41ee675f20b3a1e47d"
                        "07270359dcfa03e7314225ef3986ba1c",
        },
        "step1": {
            "default": "118a6ae13bb904b35baa3079404f4889"
                       "562b973e462ac3d92c933aa2cd9ffb22",
            "cut_on_pin": "d6032f85a5d2ddb3af5b63d1b6f50408"
                          "246264a367a86587a4022c0b3086a7f7",
            "on_track": "71e4f6c232eb4dd04022be58b69c38fe"
                        "b3955bd87f25ed5402bd56bff9426d13",
        },
        "legacy": "33270672ce01959a15256a7c963fab4a"
                  "6b7dffc37bc02a3d8b1cad6c023b656b",
        "legacy_io": "8ccdfeb4a83a621b5b0cd0079ed665e9"
                     "9cf8029ca37e5662ffff6a55990fc139",
    },
    ("pinzoo_io", 1): {
        "io": {
            "default": "e2dfa94491e2f38a6641018e4e43010d"
                       "c48651c7327efb11e581662c126f7bad",
            "cut_on_pin": "e2dfa94491e2f38a6641018e4e43010d"
                          "c48651c7327efb11e581662c126f7bad",
            "on_track": "8a1110addb18d6ced617287eea046c3d"
                        "3e93eaa9229b289744a0d0a0566b4606",
        },
        "step1": {
            "default": "63690221f800f9e8414d68bd68cb63c2"
                       "932748bebbd6544240ba0d97d3a87d51",
            "cut_on_pin": "81522aba32926f2c398a02e3e6818594"
                          "43a67c04a113acb09ca4d8a31a51afa5",
            "on_track": "100eeccef36b89b2fc3feb604e3fe36e"
                        "023d3a05fd28eaf16bfd36e93ed1eb7c",
        },
        "legacy": "8534d569e6da9c13ff508080a94d05e9"
                  "3d77de371b670a9dc8c84a6f0c165f12",
        "legacy_io": "3f3fe023de2f3e7fca38f9bb02f4f611"
                     "67844a0c4f3d9baf51d17448d5556123",
    },
    ("pinzoo_hostile", 1): {
        "io": {
            "default": "44136fa355b3678a1146ad16f7e8649e"
                       "94fb4fc21fe77e8310c060f61caaff8a",
            "cut_on_pin": "44136fa355b3678a1146ad16f7e8649e"
                          "94fb4fc21fe77e8310c060f61caaff8a",
            "on_track": "44136fa355b3678a1146ad16f7e8649e"
                        "94fb4fc21fe77e8310c060f61caaff8a",
        },
        "step1": {
            "default": "f0760a218ed235aad9130e484f91d85e"
                       "c9c61b8ab02060e66e1a04d0a47ff160",
            "cut_on_pin": "b651bb70da3b27df64ebf5bead623f90"
                          "5e7c59ae841ab3980c3586b60f4d206e",
            "on_track": "eb80a95aeac514135226a6e9561f2cae"
                        "4728a85823e8be1c19b6145bc14e78e0",
        },
        "legacy": "4b4126774328b44fe1adc18ef690ad56"
                  "8b7bf656cfc342081007fc34882deb02",
        "legacy_io": "44136fa355b3678a1146ad16f7e8649e"
                     "94fb4fc21fe77e8310c060f61caaff8a",
    },
}


@pytest.fixture(
    scope="module", params=sorted(_DIGESTS), ids=lambda k: f"{k[0]}@{k[1]}"
)
def case(request):
    return request.param, build_case(*request.param)


class TestLadderDigests:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_io_pins(self, case, name):
        key, design = case
        io_aps = IoPinAccess(design, PaafConfig(**CONFIGS[name])).run()
        assert _sha256(_by_pin(io_aps)) == _DIGESTS[key]["io"][name]

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_step1_engine_equals_array(self, case, name):
        key, design = case
        digests = {
            mode: _uniques_digest(
                PinAccessFramework(
                    design, PaafConfig(apcheck_mode=mode, **CONFIGS[name])
                ).run_step1()
            )
            for mode in ("engine", "array")
        }
        assert digests == {
            mode: _DIGESTS[key]["step1"][name] for mode in digests
        }

    def test_legacy_baseline(self, case):
        key, design = case
        assert (
            _uniques_digest(LegacyPinAccess(design).run())
            == _DIGESTS[key]["legacy"]
        )
        assert (
            _sha256(_by_pin(legacy_io_access(design)))
            == _DIGESTS[key]["legacy_io"]
        )
