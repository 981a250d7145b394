type entry = {
  year : float;
  system : string;
  rmax_1 : float;
  rmax_500 : float;
  sum : float;
}

(* June lists; Rmax in flop/s. #500 and sum values are approximate
   digitizations of the published performance-development chart. *)
let milestones =
  [
    { year = 1993.5; system = "CM-5/1024"; rmax_1 = 59.7e9; rmax_500 = 0.42e9; sum = 1.17e12 };
    { year = 1994.5; system = "Numerical Wind Tunnel"; rmax_1 = 170.0e9; rmax_500 = 0.58e9; sum = 1.52e12 };
    { year = 1996.5; system = "SR2201/1024"; rmax_1 = 220.4e9; rmax_500 = 2.0e9; sum = 4.99e12 };
    { year = 1997.5; system = "ASCI Red"; rmax_1 = 1.068e12; rmax_500 = 3.5e9; sum = 10.0e12 };
    { year = 1999.5; system = "ASCI Red (upgrade)"; rmax_1 = 2.38e12; rmax_500 = 17.1e9; sum = 39.4e12 };
    { year = 2001.5; system = "ASCI White"; rmax_1 = 7.23e12; rmax_500 = 42.1e9; sum = 108.8e12 };
    { year = 2002.5; system = "Earth Simulator"; rmax_1 = 35.86e12; rmax_500 = 52.2e9; sum = 222.0e12 };
    { year = 2004.5; system = "Earth Simulator"; rmax_1 = 35.86e12; rmax_500 = 624.0e9; sum = 813.0e12 };
    { year = 2005.5; system = "BlueGene/L"; rmax_1 = 136.8e12; rmax_500 = 1.17e12; sum = 1.69e15 };
    { year = 2007.5; system = "BlueGene/L"; rmax_1 = 280.6e12; rmax_500 = 4.0e12; sum = 4.92e15 };
    { year = 2008.5; system = "Roadrunner"; rmax_1 = 1.026e15; rmax_500 = 9.0e12; sum = 11.7e15 };
    { year = 2009.5; system = "Roadrunner"; rmax_1 = 1.105e15; rmax_500 = 17.1e12; sum = 22.6e15 };
    { year = 2010.5; system = "Jaguar"; rmax_1 = 1.759e15; rmax_500 = 24.7e12; sum = 32.4e15 };
    { year = 2011.5; system = "K computer"; rmax_1 = 8.162e15; rmax_500 = 40.1e12; sum = 58.9e15 };
    { year = 2012.5; system = "Sequoia"; rmax_1 = 16.32e15; rmax_500 = 60.8e12; sum = 123.0e15 };
    { year = 2013.5; system = "Tianhe-2"; rmax_1 = 33.86e15; rmax_500 = 96.6e12; sum = 223.0e15 };
    { year = 2014.5; system = "Tianhe-2"; rmax_1 = 33.86e15; rmax_500 = 133.2e12; sum = 274.0e15 };
    { year = 2015.5; system = "Tianhe-2"; rmax_1 = 33.86e15; rmax_500 = 164.0e12; sum = 363.0e15 };
    { year = 2016.5; system = "Sunway TaihuLight"; rmax_1 = 93.01e15; rmax_500 = 286.1e12; sum = 566.7e15 };
  ]

type series = Number_one | Number_500 | Sum

let value_of series e =
  match series with Number_one -> e.rmax_1 | Number_500 -> e.rmax_500 | Sum -> e.sum

let values series =
  Array.of_list (List.map (fun e -> (e.year, value_of series e)) milestones)

let fit series =
  let pts = Array.map (fun (y, v) -> (y, log10 v)) (values series) in
  Xsc_util.Stats.linear_fit pts

let decade_years f =
  if f.Xsc_util.Stats.slope <= 0.0 then infinity else 1.0 /. f.Xsc_util.Stats.slope

let projected_year series ~target =
  if target <= 0.0 then invalid_arg "Top500.projected_year: target must be positive";
  let f = fit series in
  (log10 target -. f.Xsc_util.Stats.intercept) /. f.Xsc_util.Stats.slope
