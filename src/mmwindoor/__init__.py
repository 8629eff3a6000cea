"""Indoor millimeter-wave channel analytics at 28 and 73.5 GHz.

Close-in (1 m) free-space reference path loss models with measured parameter
catalogs, power-delay-profile delay statistics, omnidirectional power
synthesis from directional sweeps, MMSE parameter estimation, and a seeded
campaign simulator for estimator round-trips.

Each name lives in one module and is imported from it, e.g.
``from mmwindoor.pathloss import mean_path_loss_db``; the package root holds
only ``__version__``.
"""

__version__ = "0.1.0"
