"""dustlink: Monte Carlo (sub-)THz link budgets through dusty atmospheres.

The package composes four physical stages: ``scatter`` turns a dust
population into a per-meter extinction rate, ``transport`` runs photon
packets through the dust slab to estimate transmittance, ``atmosphere``
computes line-by-line molecular absorption, and ``link`` folds everything
into channel gain and Shannon capacity. ``storm`` generates dust particle
counts from a kinematic wind field, and ``cli`` orchestrates the built-in
experiment scenarios.
"""

from .atmosphere import (AbsorptionSpectrum, GasMixture, LineTable,
                         SpectralLine, absorption_coefficient,
                         doppler_halfwidth, doppler_shape,
                         line_intensity_at_temperature, load_catalog_dir,
                         lorentz_halfwidth, lorentz_shape, parse_catalog,
                         parse_par_record, render_par_record)
from .constants import db_from_transmittance, dbm_to_watts
from .errors import (CatalogError, ConfigError, DomainError, DustlinkError,
                     FormatError)
from .link import (CapacityResult, ChannelGains, LinkConfig, capacity,
                   channel_gain, h_absorption, h_dust, h_spreading,
                   run_distance_sweep, run_time_scenario)
from .presets import EARTH, MARS, PlanetPreset, bundled_catalog_dir, preset
from .scatter import (DustPermittivity, ExtinctionResult, LinearDensity,
                      MediumSpec, SizeDistribution, Visibility,
                      VolumetricDensity, dust_permittivity,
                      ensemble_extinction, extinction_efficiency,
                      number_density_from_visibility, physical_cross_section)
from .storm import (BeamCone, ParticleField, StormConfig, count_in_beam,
                    density_time_series, empty_field, step_field)
from .transport import (FateCounts, TransportConfig, TransportResult,
                        UniformAsymmetry, estimate_batch,
                        estimate_transmittance, sample_scatter_angles,
                        trace_packet, update_direction)

__version__ = "0.1.0"
