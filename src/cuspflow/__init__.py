"""Cusp-excursion statistics on Teichmueller discs of square-tiled surfaces.

Follows the geodesic ray from i toward a direction theta through the
Teichmueller disc of an origami, walking the Stern-Brocot tree toward theta
with exact hit tests (a certified float filter in front of an integer
comparison).  Every excursion into a cylinder horoball is recorded with its
entry and exit times, excursion length and twist (``excursions``);
``contfrac`` holds the trimmed sum over those records and an independent
Gauss-map expansion.
"""

__version__ = "0.1.0"
