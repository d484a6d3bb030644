"""The half-space shift against 30-digit reference values.

Each point is (name, z, gaps_ev, strengths, (eps_r, mu_r, kappa), reference), with the
reference the scaled shift ``shift_eunit`` as a decimal string.  The values come from
an mpmath evaluation of the reduced integral, regenerated with

    python tests/halfspace_reference.py

which also says how they are computed and checks named points against these strings.
This module needs no mpmath.  The reported error must bound the actual one at every
point: |shift - reference| <= error_eunit.
"""

from fractions import Fraction

import pytest

from chiral_vacuum import MoleculeSpectrum, PasteurMaterial, halfspace_sweep

REFERENCE = [
    ('baseline-z0.5', 0.5, [2.0], [0.1], (1.0, 1.0, 0.4),
     '-3.64782968454828316649244483010e-1'),
    ('baseline-z10', 10.0, [2.0], [0.1], (1.0, 1.0, 0.4),
     '-4.22619585994642010037720244259e-6'),
    ('baseline-z1e-3', 0.001, [2.0], [0.1], (2.5, 1.3, 1.2),
     '-1.42300414151716842586829374217e+8'),
    ('z1e-4', 0.0001, [2.0], [0.1], (1.0, 1.0, 0.4),
     '-8.17987273477717960851523711374e+10'),
    ('z1e-2', 0.01, [2.0], [0.1], (1.0, 1.0, 0.4),
     '-8.04832985026561979347165037399e+4'),
    ('z1', 1.0, [2.0], [0.1], (1.0, 1.0, 0.4),
     '-3.12900096486492169196959877527e-2'),
    ('z100', 100.0, [2.0], [0.1], (1.0, 1.0, 0.4),
     '-4.25637216619452707045435603443e-10'),
    ('z1e3', 1000.0, [2.0], [0.1], (1.0, 1.0, 0.4),
     '-4.25668434765485480615552051211e-14'),
    ('kappa_r+1-z1e-4', 0.0001, [2.0], [0.1], (4.0, 1.0, 2.0),
     '-2.61756689371199669578815198903e+11'),
    ('kappa_r-1-z1', 1.0, [2.0], [0.1], (4.0, 1.0, -2.0),
     '1.04658881340727113637441042043e-1'),
    ('kappa_r+1-z0.5', 0.5, [2.0], [0.1], (1.0, 1.0, 1.0),
     '-1.23687182914966695873216450980'),
    ('kappa_r-near-1', 0.5, [2.0], [0.1], (1.0, 1.0, 0.9999999),
     '-1.23687160447870373457997749907'),
    ('kappa1e-12', 0.5, [2.0], [0.1], (1.0, 1.0, 1e-12),
     '-8.66727555034149656753959197023e-13'),
    ('epsmu2e-6', 0.5, [2.0], [0.1], (0.001, 0.002, 0.001),
     '-4.14287734203725582056397192071e-3'),
    ('epsmu1e-2', 0.5, [2.0], [0.1], (0.1, 0.1, 0.03),
     '-1.00946598791153206267595384176e-1'),
    ('epsmu1e2', 0.5, [2.0], [0.1], (10.0, 10.0, 3.0),
     '-4.70654741214886493621344890757e-2'),
    ('epsmu1e4', 0.5, [2.0], [0.1], (100.0, 100.0, 50.0),
     '-3.20659190617093405053876151517e-3'),
    ('eta0.2', 0.1, [2.0], [0.1], (5.0, 0.2, 0.3),
     '-2.85170964832103214375576088840e+1'),
    ('three-transitions', 0.5, [2.0, 3.5, 5.0], [0.1, -0.04, 0.02], (2.0, 1.5, 0.6),
     '-2.19623574257392527388350300841e-1'),
    ('three-transitions-z0.05', 0.05, [2.0, 3.5, 5.0], [0.1, -0.04, 0.02], (2.0, 1.5, 0.6),
     '-3.83799394000796443701298795930e+2'),
]


@pytest.mark.parametrize("name,z,gaps,strengths,material,reference", REFERENCE,
                         ids=[point[0] for point in REFERENCE])
def test_reported_error_bounds_the_distance_from_the_reference(
        name, z, gaps, strengths, material, reference):
    [point] = halfspace_sweep([z], MoleculeSpectrum.from_lists(gaps, strengths),
                              PasteurMaterial(*material))
    assert point.warning is None
    assert abs(Fraction(point.shift_eunit) - Fraction(reference)) <= Fraction(point.error_eunit)
