//! Grid/CTA/thread geometry.

/// A 3-component dimension, as in CUDA's `dim3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// X extent.
    pub x: u32,
    /// Y extent.
    pub y: u32,
    /// Z extent.
    pub z: u32,
}

gcl_mem::declare_wire! { Dim3 { x, y, z } }

impl Dim3 {
    /// A 1-D dimension.
    pub fn x(x: u32) -> Dim3 {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A 2-D dimension.
    pub fn xy(x: u32, y: u32) -> Dim3 {
        Dim3 { x, y, z: 1 }
    }

    /// Total element count.
    pub fn count(&self) -> u64 {
        u64::from(self.x) * u64::from(self.y) * u64::from(self.z)
    }

    /// Decompose a linear index into (x, y, z) coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `linear` is out of range.
    pub fn coords(&self, linear: u64) -> (u32, u32, u32) {
        assert!(linear < self.count(), "linear index {linear} out of range");
        let x = (linear % u64::from(self.x)) as u32;
        let y = ((linear / u64::from(self.x)) % u64::from(self.y)) as u32;
        let z = (linear / (u64::from(self.x) * u64::from(self.y))) as u32;
        (x, y, z)
    }

    /// Compose coordinates into a linear index (the paper's linearized CTA
    /// id: `x + y*dim.x + z*dim.x*dim.y`).
    pub fn linear(&self, x: u32, y: u32, z: u32) -> u64 {
        u64::from(x)
            + u64::from(y) * u64::from(self.x)
            + u64::from(z) * u64::from(self.x) * u64::from(self.y)
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Dim3 {
        Dim3::x(x)
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Dim3 {
        Dim3::xy(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_coords_round_trip() {
        let d = Dim3 { x: 4, y: 3, z: 2 };
        assert_eq!(d.count(), 24);
        for i in 0..24 {
            let (x, y, z) = d.coords(i);
            assert_eq!(d.linear(x, y, z), i);
        }
    }

    #[test]
    fn one_d_helpers() {
        assert_eq!(Dim3::x(7).count(), 7);
        assert_eq!(Dim3::xy(2, 5).count(), 10);
        let d: Dim3 = 9u32.into();
        assert_eq!(d, Dim3::x(9));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coords_bounds_checked() {
        Dim3::x(4).coords(4);
    }
}
