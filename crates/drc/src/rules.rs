//! The design-rule record.

use std::fmt;

/// A set of design-rule distances, in board units (paper Sec. II, Fig. 1).
///
/// Construct with [`DesignRules::new`] (validating) or tweak a default:
///
/// ```
/// use meander_drc::DesignRules;
/// let rules = DesignRules::new(8.0, 8.0, 8.0, 2.0, 4.0).unwrap();
/// assert_eq!(rules.gap, 8.0);
/// let loose = DesignRules { gap: 12.0, ..rules };
/// assert_eq!(loose.protect, 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignRules {
    /// `dgap`: minimum clearance between trace edges.
    pub gap: f64,
    /// `dobs`: minimum clearance between a trace edge and an obstacle.
    pub obstacle: f64,
    /// `dprotect`: minimum legal segment length.
    pub protect: f64,
    /// `dmiter`: chamfer distance applied to right/acute pattern corners.
    pub miter: f64,
    /// Trace width (uniform per rule area in this model).
    pub width: f64,
}

/// Error constructing [`DesignRules`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RulesError {
    /// A rule value was negative or non-finite.
    InvalidValue(&'static str),
    /// Width must be strictly positive.
    NonPositiveWidth,
}

impl fmt::Display for RulesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RulesError::InvalidValue(which) => {
                write!(f, "design rule `{which}` must be finite and non-negative")
            }
            RulesError::NonPositiveWidth => write!(f, "trace width must be positive"),
        }
    }
}

impl std::error::Error for RulesError {}

impl DesignRules {
    /// Creates a validated rule set.
    ///
    /// # Errors
    ///
    /// Returns [`RulesError`] when any distance is negative or non-finite,
    /// or when `width` is not strictly positive.
    pub fn new(
        gap: f64,
        obstacle: f64,
        protect: f64,
        miter: f64,
        width: f64,
    ) -> Result<Self, RulesError> {
        for (v, name) in [
            (gap, "gap"),
            (obstacle, "obstacle"),
            (protect, "protect"),
            (miter, "miter"),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(RulesError::InvalidValue(name));
            }
        }
        if !width.is_finite() || width <= 0.0 {
            return Err(RulesError::NonPositiveWidth);
        }
        Ok(DesignRules {
            gap,
            obstacle,
            protect,
            miter,
            width,
        })
    }

    /// Center-line clearance required between this trace and an obstacle
    /// border.
    #[inline]
    pub fn centerline_obstacle(&self) -> f64 {
        self.obstacle + self.width / 2.0
    }

    /// Component-wise maximum of two rule sets — the conservative resolution
    /// when an entity spans two rule areas.
    pub(crate) fn max(&self, other: &DesignRules) -> DesignRules {
        DesignRules {
            gap: self.gap.max(other.gap),
            obstacle: self.obstacle.max(other.obstacle),
            protect: self.protect.max(other.protect),
            miter: self.miter.max(other.miter),
            width: self.width.max(other.width),
        }
    }
}

impl Default for DesignRules {
    /// Defaults loosely modeled on a mils-unit high-speed board: 8 mil gap
    /// and obstacle clearance, 8 mil protect, 2 mil miter, 4 mil width.
    fn default() -> Self {
        DesignRules {
            gap: 8.0,
            obstacle: 8.0,
            protect: 8.0,
            miter: 2.0,
            width: 4.0,
        }
    }
}

impl fmt::Display for DesignRules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rules{{gap {:.3}, obs {:.3}, protect {:.3}, miter {:.3}, w {:.3}}}",
            self.gap, self.obstacle, self.protect, self.miter, self.width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_construction() {
        let r = DesignRules::new(8.0, 6.0, 8.0, 2.0, 4.0).unwrap();
        assert_eq!(r.obstacle, 6.0);
    }

    #[test]
    fn rejects_bad_values() {
        assert_eq!(
            DesignRules::new(-1.0, 6.0, 8.0, 2.0, 4.0),
            Err(RulesError::InvalidValue("gap"))
        );
        assert_eq!(
            DesignRules::new(8.0, f64::NAN, 8.0, 2.0, 4.0),
            Err(RulesError::InvalidValue("obstacle"))
        );
        assert_eq!(
            DesignRules::new(8.0, 6.0, 8.0, 2.0, 0.0),
            Err(RulesError::NonPositiveWidth)
        );
    }

    #[test]
    fn centerline_clearances() {
        let r = DesignRules::new(8.0, 6.0, 8.0, 2.0, 4.0).unwrap();
        assert_eq!(r.centerline_obstacle(), 8.0);
    }

    #[test]
    fn max_is_componentwise() {
        let a = DesignRules::new(8.0, 6.0, 8.0, 2.0, 4.0).unwrap();
        let b = DesignRules::new(4.0, 10.0, 12.0, 1.0, 5.0).unwrap();
        let m = a.max(&b);
        assert_eq!(m.gap, 8.0);
        assert_eq!(m.obstacle, 10.0);
        assert_eq!(m.protect, 12.0);
        assert_eq!(m.miter, 2.0);
        assert_eq!(m.width, 5.0);
    }

    #[test]
    fn display_and_error_messages() {
        let r = DesignRules::default();
        assert!(format!("{r}").contains("gap"));
        assert!(format!("{}", RulesError::NonPositiveWidth).contains("width"));
    }
}
