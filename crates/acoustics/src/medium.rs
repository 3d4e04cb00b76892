//! Air propagation.
//!
//! Point-source spherical spreading: amplitude falls as `1/r` relative to
//! the 1 m reference distance at which speakers are calibrated, and sound
//! travels at 343 m/s, so distant sources arrive late. The scene renderer
//! applies exactly these two effects, spreading and delay. High-frequency
//! air absorption ([`absorption_gain`], a gentle per-metre dB/kHz loss) is
//! modelled here but not applied by the renderer: at rack scale it is a
//! fraction of a dB.

/// Speed of sound in air at ~20 °C, m/s.
pub const SPEED_OF_SOUND: f64 = 343.0;

/// Reference distance (m) at which speaker output levels are specified.
pub const REFERENCE_DISTANCE: f64 = 1.0;

/// Closest modelled approach (m): inside this the source is no longer a
/// point and the inverse law stops applying.
pub const NEAR_FIELD_LIMIT: f64 = 0.05;

/// Air absorption coefficient: extra attenuation in dB per metre per kHz.
/// A coarse flat-weather approximation of ISO 9613-1.
pub const ABSORPTION_DB_PER_M_PER_KHZ: f64 = 0.012;

/// A position in metres. The testbeds are rack-scale so a flat 3-D point is
/// plenty.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pos {
    /// x in metres.
    pub x: f64,
    /// y in metres.
    pub y: f64,
    /// z in metres.
    pub z: f64,
}

impl Pos {
    /// Construct a position.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// The origin.
    pub const ORIGIN: Pos = Pos::new(0.0, 0.0, 0.0);

    /// Euclidean distance to another position, metres.
    pub fn distance(&self, other: &Pos) -> f64 {
        let (dx, dy, dz) = (self.x - other.x, self.y - other.y, self.z - other.z);
        (dx * dx + dy * dy + dz * dz).sqrt()
    }
}

/// Spherical-spreading amplitude gain at `distance` metres: `1/r` relative
/// to the 1 m reference, so a closely-placed microphone (the paper's §7
/// answer) genuinely gains level. Clamped at [`NEAR_FIELD_LIMIT`].
#[inline]
pub fn spreading_gain(distance: f64) -> f64 {
    REFERENCE_DISTANCE / distance.max(NEAR_FIELD_LIMIT)
}

/// Frequency-dependent air absorption gain over `distance` metres at
/// `freq_hz`.
#[inline]
pub fn absorption_gain(distance: f64, freq_hz: f64) -> f64 {
    let db = ABSORPTION_DB_PER_M_PER_KHZ * distance.max(0.0) * (freq_hz / 1000.0);
    10f64.powf(-db / 20.0)
}

/// Propagation delay in seconds over `distance` metres.
#[inline]
pub fn propagation_delay_s(distance: f64) -> f64 {
    distance.max(0.0) / SPEED_OF_SOUND
}

/// Amplitude a source of peak amplitude `source_amplitude` (referenced to
/// [`REFERENCE_DISTANCE`]) presents at `distance` metres under the
/// spreading law alone — the exact attenuation the scene renderer applies
/// to emissions, so cross-cell interference bounds computed with this
/// query hold for rendered audio, not just on paper.
#[inline]
pub fn incident_amplitude(source_amplitude: f64, distance: f64) -> f64 {
    source_amplitude * spreading_gain(distance)
}

/// Inverse of [`incident_amplitude`]: the distance beyond which a source
/// of peak amplitude `source_amplitude` lands below `threshold` — the
/// *reuse distance* for spatial frequency reuse across acoustic cells.
/// Two cells may share a tone slot when they are farther apart than this.
///
/// # Panics
/// Panics unless `threshold` is positive.
#[inline]
pub fn reuse_distance(source_amplitude: f64, threshold: f64) -> f64 {
    assert!(threshold > 0.0, "reuse threshold must be positive");
    (source_amplitude * REFERENCE_DISTANCE / threshold).max(NEAR_FIELD_LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Pos::new(0.0, 0.0, 0.0);
        let b = Pos::new(3.0, 4.0, 0.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn gain_is_unity_at_reference_and_rises_closer() {
        assert_eq!(spreading_gain(1.0), 1.0);
        assert!((spreading_gain(0.5) - 2.0).abs() < 1e-12);
        // Near-field clamp: no infinite gain at contact.
        assert_eq!(spreading_gain(0.0), 1.0 / NEAR_FIELD_LIMIT);
        assert_eq!(spreading_gain(0.01), 1.0 / NEAR_FIELD_LIMIT);
    }

    #[test]
    fn gain_follows_inverse_distance() {
        assert!((spreading_gain(2.0) - 0.5).abs() < 1e-12);
        assert!((spreading_gain(10.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn doubling_distance_costs_6db() {
        use mdn_audio::signal::ratio_to_db;
        let loss = ratio_to_db(spreading_gain(4.0)) - ratio_to_db(spreading_gain(2.0));
        assert!((loss + 6.0206).abs() < 0.01);
    }

    #[test]
    fn absorption_grows_with_frequency_and_distance() {
        assert!(absorption_gain(10.0, 10_000.0) < absorption_gain(10.0, 1_000.0));
        assert!(absorption_gain(100.0, 1_000.0) < absorption_gain(1.0, 1_000.0));
        assert!(absorption_gain(0.0, 20_000.0) == 1.0);
    }

    #[test]
    fn delay_at_speed_of_sound() {
        assert!((propagation_delay_s(343.0) - 1.0).abs() < 1e-12);
        assert_eq!(propagation_delay_s(0.0), 0.0);
    }

    #[test]
    fn incident_amplitude_matches_spreading_law() {
        assert!((incident_amplitude(0.02, 1.0) - 0.02).abs() < 1e-15);
        assert!((incident_amplitude(0.02, 4.0) - 0.005).abs() < 1e-15);
    }

    #[test]
    fn reuse_distance_inverts_incident_amplitude() {
        let amp = 0.0178; // a 65 dB SPL source
        let thr = 4e-3;
        let d = reuse_distance(amp, thr);
        // Just past the reuse distance the tone is below threshold; just
        // inside it, above.
        assert!(incident_amplitude(amp, d * 1.001) < thr);
        assert!(incident_amplitude(amp, d * 0.999) > thr);
    }

    #[test]
    fn reuse_distance_clamps_to_near_field() {
        // A whisper against a huge threshold never needs more than the
        // near-field limit of separation.
        assert_eq!(reuse_distance(1e-6, 1.0), NEAR_FIELD_LIMIT);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn reuse_distance_rejects_zero_threshold() {
        reuse_distance(0.02, 0.0);
    }
}
