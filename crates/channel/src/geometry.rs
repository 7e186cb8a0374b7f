//! 2-D geometry primitives for the simulated office deployment.
//!
//! The paper deploys 256 devices across one floor of an office building with
//! more than ten rooms (Fig. 1). The deployment generator in
//! `netscatter-sim` places devices on a floorplan described with these
//! primitives; the channel models only need distances and wall counts.

/// A point on the deployment floorplan, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another position, in metres.
    pub fn distance_to(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// An axis-aligned rectangular room on the floorplan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Room {
    /// Minimum-x/minimum-y corner.
    pub min: Position,
    /// Maximum-x/maximum-y corner.
    pub max: Position,
}

impl Room {
    /// Creates a room from two opposite corners, normalizing the order.
    pub fn new(a: Position, b: Position) -> Self {
        Self {
            min: Position::new(a.x.min(b.x), a.y.min(b.y)),
            max: Position::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Whether the room contains a point (inclusive of the boundary).
    pub fn contains(&self, p: &Position) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }
}

/// A floorplan: a set of rooms on a grid. The number of interior walls
/// between two points is approximated by how many room boundaries the
/// straight line between them crosses, which is what the wall-loss term of
/// the path-loss model consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    rooms: Vec<Room>,
}

impl Floorplan {
    /// Builds a floorplan from a list of rooms.
    pub fn new(rooms: Vec<Room>) -> Self {
        Self { rooms }
    }

    /// A regular `cols × rows` grid of identical rooms, each
    /// `room_w × room_d` metres — a reasonable stand-in for the paper's
    /// ">10 room" office floor.
    pub fn office_grid(cols: usize, rows: usize, room_w: f64, room_d: f64) -> Self {
        let mut rooms = Vec::with_capacity(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                let min = Position::new(c as f64 * room_w, r as f64 * room_d);
                let max = Position::new((c + 1) as f64 * room_w, (r + 1) as f64 * room_d);
                rooms.push(Room::new(min, max));
            }
        }
        Self { rooms }
    }

    /// Total bounding extent of the floorplan (width, depth) in metres.
    pub fn extent(&self) -> (f64, f64) {
        let mut w = 0.0f64;
        let mut d = 0.0f64;
        for room in &self.rooms {
            w = w.max(room.max.x);
            d = d.max(room.max.y);
        }
        (w, d)
    }

    /// Index of the room containing a point, if any.
    fn room_of(&self, p: &Position) -> Option<usize> {
        self.rooms.iter().position(|r| r.contains(p))
    }

    /// Estimates the number of walls a direct path between `a` and `b`
    /// crosses by sampling the segment and counting room transitions.
    ///
    /// This is intentionally a coarse estimate — path-loss wall terms are
    /// themselves coarse (a few dB per wall) — but it is deterministic and
    /// monotone in the room-to-room separation.
    pub fn walls_between(&self, a: &Position, b: &Position) -> usize {
        const STEPS: usize = 200;
        let mut walls = 0usize;
        let mut prev = self.room_of(a);
        for i in 1..=STEPS {
            let t = i as f64 / STEPS as f64;
            let p = Position::new(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t);
            let cur = self.room_of(&p);
            if cur != prev {
                // Transitioning between different rooms (or in/out of the
                // covered area) crosses a wall.
                walls += 1;
                prev = cur;
            }
        }
        walls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance_to(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance_to(&a), 0.0);
    }

    #[test]
    fn room_contains_and_dimensions() {
        let room = Room::new(Position::new(5.0, 2.0), Position::new(1.0, 8.0));
        assert_eq!(room.min, Position::new(1.0, 2.0));
        assert_eq!(room.max, Position::new(5.0, 8.0));
        assert!(room.contains(&Position::new(3.0, 5.0)));
        assert!(room.contains(&Position::new(1.0, 2.0)));
        assert!(!room.contains(&Position::new(0.5, 5.0)));
    }

    #[test]
    fn office_grid_builds_expected_rooms() {
        let plan = Floorplan::office_grid(4, 3, 5.0, 6.0);
        assert_eq!(plan.rooms.len(), 12);
        assert_eq!(plan.extent(), (20.0, 18.0));
        assert_eq!(plan.room_of(&Position::new(0.5, 0.5)), Some(0));
        assert_eq!(plan.room_of(&Position::new(19.5, 17.5)), Some(11));
        assert_eq!(plan.room_of(&Position::new(30.0, 30.0)), None);
    }

    #[test]
    fn walls_between_counts_room_transitions() {
        let plan = Floorplan::office_grid(4, 1, 5.0, 5.0);
        let a = Position::new(2.5, 2.5); // room 0
        let same_room = Position::new(4.0, 4.0);
        let next_room = Position::new(7.5, 2.5); // room 1
        let far_room = Position::new(17.5, 2.5); // room 3
        assert_eq!(plan.walls_between(&a, &same_room), 0);
        assert!(plan.walls_between(&a, &next_room) >= 1);
        assert!(plan.walls_between(&a, &far_room) >= 3);
        // Symmetric (same segment, opposite direction).
        assert_eq!(
            plan.walls_between(&a, &far_room),
            plan.walls_between(&far_room, &a)
        );
    }

    #[test]
    fn walls_between_is_monotone_with_room_separation() {
        let plan = Floorplan::office_grid(6, 1, 4.0, 4.0);
        let ap = Position::new(2.0, 2.0);
        let mut last = 0;
        for room in 0..6 {
            let p = Position::new(room as f64 * 4.0 + 2.0, 2.0);
            let walls = plan.walls_between(&ap, &p);
            assert!(walls >= last);
            last = walls;
        }
    }
}
