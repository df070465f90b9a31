import math

import numpy as np
import pytest

from obsurf import sensor
from obsurf.sensor import Camera, ray_box_range, ray_directions, \
    render_depth


class TestRayCasting:
    def test_empty_world(self):
        cam = Camera.from_fov((0.0, 0.0), 0.0, 1.0, 32)
        depth = render_depth(np.zeros((0, 4)), cam)
        assert np.all(np.isinf(depth.z))
        assert depth.cloud.shape[0] == 0

    def test_box_range_exact(self):
        cam = Camera.from_fov((0.0, 0.0), 0.0, 1.0, 33)
        boxes = np.array([[2.0, -5.0, 2.5, 5.0]])
        depth = render_depth(boxes, cam)
        center = 16  # optical-axis ray, perpendicular hit
        assert depth.z[center] == pytest.approx(2.0, abs=1e-9)
        # oblique rays hit at range 2 / cos(theta)
        dirs = ray_directions(cam)
        for i in (0, 5, 28, 32):
            want = 2.0 / dirs[i, 0]
            assert depth.z[i] == pytest.approx(want, abs=1e-9)

    def test_cloud_is_backprojection(self):
        cam = Camera.from_fov((0.1, -0.2), 0.3, 1.2, 40)
        boxes = np.array([[1.0, -3.0, 1.4, 3.0], [0.5, 0.5, 0.9, 0.8]])
        depth = render_depth(boxes, cam)
        dirs = ray_directions(cam)
        finite = np.isfinite(depth.z)
        want = np.asarray(cam.position) + depth.z[finite, None] * dirs[finite]
        np.testing.assert_allclose(depth.cloud, want, atol=1e-12)

    def test_nearest_surface_wins(self):
        cam = Camera.from_fov((0.0, 0.0), 0.0, 0.8, 9)
        boxes = np.array([[3.0, -2.0, 3.5, 2.0], [1.0, -2.0, 1.5, 2.0]])
        depth = render_depth(boxes, cam)
        assert depth.z[4] == pytest.approx(1.0)

    def test_axis_parallel_ray_miss(self):
        # ray along +x at y=0 never enters a box fully above it
        t = ray_box_range(np.array([0.0, 0.0]), np.array([[1.0, 0.0]]),
                          np.array([[1.0, 0.5, 2.0, 1.5]]))
        assert np.isinf(t[0])

    def test_ray_starting_inside(self):
        t = ray_box_range(np.array([1.5, 0.0]), np.array([[1.0, 0.0]]),
                          np.array([[1.0, -1.0, 2.0, 1.0]]))
        assert t[0] == 0.0


class TestOcclusion:
    def test_blocker_hides_back_box(self):
        cam = Camera.from_fov((0.0, 0.0), 0.0, 1.0, 64)
        blocker = [1.0, -2.0, 1.2, 2.0]
        hidden = [2.0, -0.5, 2.4, 0.5]
        depth = render_depth(np.array([blocker, hidden]), cam)
        on_hidden = ((depth.cloud[:, 0] >= hidden[0] - 1e-9)
                     & (depth.cloud[:, 0] <= hidden[2] + 1e-9)
                     & (depth.cloud[:, 1] >= hidden[1] - 1e-9)
                     & (depth.cloud[:, 1] <= hidden[3] + 1e-9))
        assert not on_hidden.any()


class TestProjection:
    def test_center_pixel_on_axis(self):
        cam = Camera.from_fov((0.0, 0.0), 0.0, 1.0, 33)
        u, z, rng = sensor.project(cam, np.array([[2.0, 0.0]]))
        assert u[0] == pytest.approx(cam.center_px)
        assert z[0] == pytest.approx(2.0)
        assert rng[0] == pytest.approx(2.0)

    def test_rotated_camera(self):
        cam = Camera.from_fov((1.0, 1.0), math.pi / 2, 1.0, 33)
        u, z, _ = sensor.project(cam, np.array([[1.0, 3.0]]))
        assert u[0] == pytest.approx(cam.center_px)
        assert z[0] == pytest.approx(2.0)
